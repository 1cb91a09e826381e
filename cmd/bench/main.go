// Command bench is the kernel performance gate: it measures the simulator's
// host-side speed on the hot paths a figure run lives in, with
// testing.Benchmark over cache tag-array access, fused hit-access (L1 hits,
// and L1-miss/L2-hits on the SVM and DASH hierarchies), the SVM fast path,
// the HLRC page path's PageArrived and Flush, a full kernel access stream,
// and tracing-off Emit, and emits a machine-readable report of ns/op and
// allocs/op (BENCH_kernel.json at the repo root is the committed reference
// for this container class).
//
// With -compare FILE the run becomes a regression gate: ns/op worse than the
// reference by more than -tolerance, or ANY allocs/op increase, fails with
// exit 1. The gate is one-sided — a run that is faster or allocates less
// than the reference never fails, however large the improvement, so kernel
// speedups land without touching the gate and the JSON is re-baselined in
// the same change. Allocation counts are host-independent and compared exactly;
// ns/op across different machines needs a generous tolerance (CI uses 0.5;
// the 0.10 default is meant for same-machine before/after comparisons).
//
//	bench -out BENCH_kernel.json
//	bench -compare BENCH_kernel.json -tolerance 0.5
//
// End-to-end wall time (cold `figures -all`, the committed campaigns) is
// measured by the host benchmark in hostbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/svm"
	"repro/internal/trace"
)

// Micro is one microbenchmark result. AllocsPerOp is exact and
// host-independent; NsPerOp is host-dependent.
type Micro struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	N           int     `json:"n"`
}

// Report is the gate's output shape; BENCH_kernel.json holds one.
type Report struct {
	GOOS     string `json:"goos"`
	GOARCH   string `json:"goarch"`
	MaxProcs int    `json:"gomaxprocs"`

	Micro map[string]Micro `json:"micro"`
}

func microBench(fn func(b *testing.B)) Micro {
	r := testing.Benchmark(fn)
	return Micro{NsPerOp: float64(r.T.Nanoseconds()) / float64(r.N), AllocsPerOp: r.AllocsPerOp(), N: r.N}
}

// runMicro measures the kernel's hot paths. Each loop body mirrors the shape
// of the corresponding alloc-guard test so the two pins (time here, allocs
// there) watch the same code.
func runMicro() map[string]Micro {
	m := map[string]Micro{}

	m["cache_access_stream"] = microBench(func(b *testing.B) {
		h := cache.New(svm.CacheConfig)
		var addr uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Access(addr, i&1 == 0, cache.Exclusive)
			addr += 32
		}
	})

	m["cache_hitaccess_hit"] = microBench(func(b *testing.B) {
		h := cache.New(svm.CacheConfig)
		h.Access(64, true, cache.Modified)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.HitAccess(64, i&1 == 0)
		}
	})

	// One op = one L1-miss/L2-hit HitAccess, read-streaming over three
	// quarters of the L2: every reference misses the direct-mapped L1 and
	// hits L2. Each DASH set holds three of the stream's lines, so the way
	// touched is never the most recent and every op reorders the 4-way set's
	// ranks; half the SVM sets hold two lines and alternate their 2 ways.
	for name, cfg := range map[string]cache.Config{
		"cache_l2hit_dash": protocol.DASHCache,
		"cache_l2hit_svm":  svm.CacheConfig,
	} {
		m[name] = microBench(func(b *testing.B) {
			h := cache.New(cfg)
			span, line := uint64(cfg.L2Size)*3/4, uint64(cfg.Line)
			for a := uint64(0); a < span; a += line {
				h.Access(a, false, cache.Exclusive)
			}
			var addr uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.HitAccess(addr, false)
				if addr += line; addr == span {
					addr = 0
				}
			}
		})
	}

	m["svm_fastaccess"] = microBench(func(b *testing.B) {
		as := mem.NewAddressSpace(platform.PageSize, 1)
		a := as.AllocPages(1 << 16)
		as.SetHome(a, 1<<16, 0)
		pl := svm.New(as, protocol.DefaultHLRCParams(), 1)
		k := sim.New(pl, sim.Config{NumProcs: 1})
		pl.Attach(k)
		pl.Prevalidate(a, 1<<16, 0)
		var off uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pl.FastAccess(0, 0, a+off%(1<<16), false)
			off += 32
		}
	})

	// One op = one full 32768-access kernel run (1 MB at 32 B lines),
	// scheduler and stats included — the closest micro proxy for figure
	// wall-clock. The stream is issued as page-sized ReadRange batches, the
	// way the applications stream memory, so this measures the event loop's
	// resumable-batch path end to end.
	m["kernel_stream_32k"] = microBench(func(b *testing.B) {
		as := mem.NewAddressSpace(platform.PageSize, 1)
		a := as.AllocPages(1 << 20)
		as.SetHome(a, 1<<20, 0)
		pl := svm.New(as, protocol.DefaultHLRCParams(), 1)
		k := sim.New(pl, sim.Config{NumProcs: 1})
		body := func(p *sim.Proc) {
			for off := uint64(0); off < 1<<20; off += platform.PageSize {
				p.ReadRange(a+off, platform.PageSize)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Run("stream", body)
		}
	})

	// Same 32768-line stream issued as individual Read calls: the per-line
	// entry into the kernel, which irregular access patterns still use.
	m["kernel_stream_lines_32k"] = microBench(func(b *testing.B) {
		as := mem.NewAddressSpace(platform.PageSize, 1)
		a := as.AllocPages(1 << 20)
		as.SetHome(a, 1<<20, 0)
		pl := svm.New(as, protocol.DefaultHLRCParams(), 1)
		k := sim.New(pl, sim.Config{NumProcs: 1})
		body := func(p *sim.Proc) {
			for off := uint64(0); off < 1<<20; off += 32 {
				p.Read(a + off)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Run("stream", body)
		}
	})

	// One op = four line fills on one valid page, then that page's
	// PageArrived: the fetched page replaces the page under the node's
	// caches, which drop its lines through the page fill filter.
	m["svm_page_arrived"] = microBench(func(b *testing.B) {
		as := mem.NewAddressSpace(platform.PageSize, 1)
		a := as.AllocPages(1 << 16)
		as.SetHome(a, 1<<16, 0)
		pl := svm.New(as, protocol.DefaultHLRCParams(), 1)
		k := sim.New(pl, sim.Config{NumProcs: 1})
		pl.Attach(k)
		pl.Prevalidate(a, 1<<16, 0)
		pages := uint64(1<<16) / platform.PageSize
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base := a + uint64(i)%pages*platform.PageSize
			for off := uint64(0); off < 4*1024; off += 1024 {
				pl.FastAccess(0, 0, base+off, false)
			}
			pl.PageArrived(0, base/platform.PageSize)
		}
	})

	// One op = one HLRC interval of node 0 on a two-node machine: write
	// traps (with twins) on four pages homed at node 1, then the Flush that
	// diffs them home, logs their write notices and opens the next
	// interval. The engine is reset, untimed, every 1<<14 intervals so the
	// notice log's footprint does not grow with b.N.
	m["page_flush"] = microBench(func(b *testing.B) {
		as := mem.NewAddressSpace(platform.PageSize, 2)
		a := as.AllocPages(1 << 16)
		as.SetHome(a, 1<<16, 1)
		pl := svm.New(as, protocol.DefaultHLRCParams(), 2)
		k := sim.New(pl, sim.Config{NumProcs: 2})
		if _, err := k.RunErr("attach", func(*sim.Proc) {}); err != nil {
			b.Fatal(err)
		}
		eng := protocol.NewPageEngine(protocol.PageConfig{Params: pl.P, Domains: 2, Host: pl})
		npages := int(as.NumPages()) + 1
		eng.Init(k, npages)
		pages := uint64(1<<16) / platform.PageSize
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%(1<<14) == 0 {
				b.StopTimer()
				eng.Init(k, npages)
				b.StartTimer()
			}
			for j := uint64(0); j < 4; j++ {
				eng.Trap(0, 0, 0, a+(uint64(4*i)+j)%pages*platform.PageSize)
			}
			eng.Flush(0, 0, 0)
		}
	})

	m["emit_nilsink"] = microBench(func(b *testing.B) {
		as := mem.NewAddressSpace(platform.PageSize, 1)
		pl := svm.New(as, protocol.DefaultHLRCParams(), 1)
		k := sim.New(pl, sim.Config{NumProcs: 1})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Emit(trace.PageFault, 0, uint64(i), 0, 0)
		}
	})

	return m
}

// compare gates a new report against a committed reference. The gate is
// strictly one-sided: getting faster (lower ns/op) or leaner (fewer
// allocs/op) can never fail, however large the improvement — only an
// allocs/op increase (exact, host-independent) or an ns/op regression beyond
// tol does. Benchmarks present in the reference must still exist; benchmarks
// new in the current run are reported but ungated until re-baselined.
func compare(ref, cur Report, tol float64) (lines []string, failed bool) {
	names := make([]string, 0, len(ref.Micro))
	for name := range ref.Micro {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		old := ref.Micro[name]
		nu, ok := cur.Micro[name]
		if !ok {
			lines = append(lines, fmt.Sprintf("FAIL %-24s missing from current run", name))
			failed = true
			continue
		}
		delta := (nu.NsPerOp - old.NsPerOp) / old.NsPerOp
		status := "ok  "
		switch {
		case nu.AllocsPerOp > old.AllocsPerOp:
			status = "FAIL"
			failed = true
		case delta > tol:
			status = "FAIL"
			failed = true
		}
		lines = append(lines, fmt.Sprintf("%s %-24s %12.1f -> %12.1f ns/op (%+6.1f%%)  %d -> %d allocs/op",
			status, name, old.NsPerOp, nu.NsPerOp, 100*delta, old.AllocsPerOp, nu.AllocsPerOp))
	}
	extra := make([]string, 0)
	for name := range cur.Micro {
		if _, ok := ref.Micro[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		nu := cur.Micro[name]
		lines = append(lines, fmt.Sprintf("new  %-24s %12s -> %12.1f ns/op           %s -> %d allocs/op (not in reference; re-baseline to gate)",
			name, "-", nu.NsPerOp, "-", nu.AllocsPerOp))
	}
	return lines, failed
}

func main() {
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	compareFile := flag.String("compare", "", "reference BENCH_kernel.json to gate against")
	tol := flag.Float64("tolerance", 0.10, "allowed fractional ns/op regression in -compare mode")
	flag.Parse()

	rep := Report{
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		MaxProcs: runtime.GOMAXPROCS(0),
		Micro:    runMicro(),
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o666); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	if *compareFile != "" {
		raw, err := os.ReadFile(*compareFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		var ref Report
		if err := json.Unmarshal(raw, &ref); err != nil {
			fmt.Fprintf(os.Stderr, "bench: parsing %s: %v\n", *compareFile, err)
			os.Exit(1)
		}
		lines, failed := compare(ref, rep, *tol)
		for _, l := range lines {
			fmt.Fprintln(os.Stderr, l)
		}
		if failed {
			fmt.Fprintf(os.Stderr, "bench: regression vs %s (tolerance %.0f%%)\n", *compareFile, 100**tol)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: no regression vs %s (tolerance %.0f%%)\n", *compareFile, 100**tol)
	}
}
