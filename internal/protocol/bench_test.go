package protocol

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Protocol-layer micro-benchmarks: the line table, one interconnect
// transaction per transport, and the per-run engine build. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/protocol/
//
// They are for same-host before/after comparisons and are not part of the
// committed BENCH_kernel.json baseline, which does not carry over between
// hosts.

var benchEntry *LineEntry

// benchTableLines bounds the lines one table grows to before it is
// discarded, so first-touch runs measure chunk allocation at a fixed
// footprint whatever b.N is.
const benchTableLines = 1 << 16

func BenchmarkLineEngineEntry(b *testing.B) {
	b.Run("first-touch", func(b *testing.B) {
		e := NewLineEngine(MESI, busCfg, busCfg.Limit(), 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			la := uint64(i) % benchTableLines
			if la == 0 {
				e.lines = nil
			}
			benchEntry = e.Entry(la)
		}
	})
	b.Run("retouch", func(b *testing.B) {
		e := NewLineEngine(MESI, busCfg, busCfg.Limit(), 1)
		for la := uint64(0); la < benchTableLines; la++ {
			e.Entry(la)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchEntry = e.Entry(uint64(i*7919) % benchTableLines)
		}
	})
}

// benchMachine builds a two-processor machine and runs it once, so its
// engine, transport and the kernel's per-run counters exist for direct
// SlowLine calls.
func benchMachine(b *testing.B, dir bool) (*sim.Kernel, *HW) {
	b.Helper()
	as := mem.NewAddressSpace(4096, 2)
	as.AllocPages(64 << 20)
	pl := NewBusMachine("smp", MESI, busCfg, as, DefaultBusParams(), 2)
	if dir {
		pl = NewDirMachine("dsm", MESI, dirCfg, as, DefaultDirParams(), 2)
	}
	k := sim.New(pl, sim.Config{NumProcs: 2})
	if _, err := k.RunErr("attach", func(*sim.Proc) {}); err != nil {
		b.Fatal(err)
	}
	return k, pl
}

var benchCost sim.AccessCost

// BenchmarkSlowLine times one coherence transaction on each transport:
// "read-miss" streams member 0 over four times its L2 capacity, so every
// read misses and evicts; "upgrade" writes lines member 0 and member 1 both
// hold Shared, so each write invalidates one remote sharer.
func BenchmarkSlowLine(b *testing.B) {
	for _, tr := range []struct {
		name string
		dir  bool
	}{{"bus", false}, {"directory", true}} {
		b.Run(tr.name+"/read-miss", func(b *testing.B) {
			k, pl := benchMachine(b, tr.dir)
			line := uint64(pl.cfg.Line)
			span := 4 * uint64(pl.cfg.L2Size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := 4096 + uint64(i)*line%span
				benchCost = pl.tr.SlowLine(k, pl.Eng, 0, 0, uint64(i)*1000, addr, false)
			}
		})
		b.Run(tr.name+"/upgrade", func(b *testing.B) {
			k, pl := benchMachine(b, tr.dir)
			line := uint64(pl.cfg.Line)
			// Fewer lines than either L2 holds, so sharing is never lost
			// to eviction.
			const nLines = 2048
			share := func() {
				for j := uint64(0); j < nLines; j++ {
					for m := 0; m < 2; m++ {
						pl.tr.SlowLine(k, pl.Eng, m, m, 0, 4096+j*line, false)
					}
				}
			}
			share()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := uint64(i) % nLines
				if j == 0 && i > 0 {
					b.StopTimer()
					share()
					b.StartTimer()
				}
				benchCost = pl.tr.SlowLine(k, pl.Eng, 0, 0, uint64(i)*1000, 4096+j*line, true)
			}
		})
	}
}

// BenchmarkHWAttach times the per-run engine build of a bus machine: one
// line table plus np cache hierarchies, over an address space whose span
// reaches every set of busCfg's L2.
func BenchmarkHWAttach(b *testing.B) {
	as := mem.NewAddressSpace(4096, 1)
	as.AllocPages(64 << 20)
	for _, np := range []int{4, 128} {
		b.Run(fmt.Sprintf("np=%d", np), func(b *testing.B) {
			pl := NewBusMachine("smp", MESI, busCfg, as, DefaultBusParams(), np)
			k := sim.New(pl, sim.Config{NumProcs: np})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pl.Attach(k)
			}
		})
	}
}
