package protocol

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// newTestPageEngine builds an engine over np one-processor domains on a
// kernel that has run once, so the per-run counters the engine charges
// exist. Every page is homed at node 1; page contents changing under the
// caches is a no-op.
func newTestPageEngine(t *testing.T, np, npages int) (*PageEngine, *sim.Kernel) {
	t.Helper()
	as := mem.NewAddressSpace(4096, np)
	as.Alloc(npages * 4096)
	as.SetHome(0, npages*4096, 1)
	k := sim.New(NewBusMachine("smp", MESI, busCfg, as, DefaultBusParams(), np), sim.Config{NumProcs: np})
	if _, err := k.RunErr("attach", func(*sim.Proc) {}); err != nil {
		t.Fatal(err)
	}
	e := NewPageEngine(PageConfig{Params: DefaultHLRCParams(), AS: as, Cluster: 1, PageChanged: func(int, uint64) {}})
	e.Init(k, npages)
	return e, k
}

// flushIntervals closes n intervals of domain 0, each writing two pages.
func flushIntervals(e *PageEngine, n int) {
	ps := e.P.PageSize
	for i := 0; i < n; i++ {
		e.Trap(0, 0, uint64(2*i%64)*ps)
		e.Trap(0, 0, uint64((2*i+1)%64)*ps)
		e.Flush(0, 0)
	}
}

// The write-notice log is flat: after one warm-up run has grown it, a
// reinitialized engine flushes 10 000 intervals without allocating, and
// the invariant audit checks the log's marks.
func TestFlushIntervalsAllocFree(t *testing.T) {
	const n = 10000
	e, _ := newTestPageEngine(t, 2, 64)
	flushIntervals(e, n)
	if allocs := testing.AllocsPerRun(1, func() {
		e.Init(e.k, 64)
		flushIntervals(e, n)
	}); allocs != 0 {
		t.Fatalf("%d flushed intervals allocate %v times after warm-up; want 0", n, allocs)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	log := &e.notices[0]
	if len(log.marks) != n || log.marks[n-1] != (noticeMark{n, 2 * n}) {
		t.Fatalf("log has %d marks ending %v, want %d ending {%d %d}", len(log.marks), log.marks[len(log.marks)-1], n, n, 2*n)
	}
	good := append([]noticeMark(nil), log.marks...)
	for _, c := range []struct {
		name   string
		breaks func(m []noticeMark) []noticeMark
		want   string
	}{
		{"last mark lost", func(m []noticeMark) []noticeMark { return m[:n-1] },
			"node 0's write log marks end at 19998 but holds 20000 pages"},
		{"interval repeated", func(m []noticeMark) []noticeMark { m[7].interval = m[6].interval; return m },
			"node 0's write log mark 7 (interval 7, end 16) does not ascend past (interval 7, end 14)"},
		{"empty interval marked", func(m []noticeMark) []noticeMark { m[7].end = m[6].end; return m },
			"node 0's write log mark 7 (interval 8, end 14) does not ascend past (interval 7, end 14)"},
		{"interval past the counter", func(m []noticeMark) []noticeMark { m[n-1].interval = n + 1; return m },
			"node 0's write log marks interval 10001, past the last closed interval 10000"},
	} {
		log.marks = c.breaks(append(log.marks[:0], good...))
		if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckInvariants = %v, want %q", c.name, err, c.want)
		}
	}
}

// An acquirer advancing over a range of intervals invalidates exactly the
// pages flushed in those intervals, read back from the flat log, however
// many empty intervals lie before, between and after them.
func TestInvalidateUpToReadsIntervals(t *testing.T) {
	e, _ := newTestPageEngine(t, 3, 16)
	ps := e.P.PageSize
	flush := func(pages ...uint64) {
		for _, pg := range pages {
			e.Trap(0, 0, pg*ps)
		}
		e.Flush(0, 0)
	}
	empty := func(n int) {
		for i := 0; i < n; i++ {
			flush()
		}
	}
	flush(1, 2)    // interval 1
	flush()        // 2
	flush(3)       // 3
	flush(4, 5, 6) // 4
	empty(1000)    // 5..1004
	flush(7)       // 1005
	empty(1000)    // 1006..2005
	flush(8, 9)    // 2006
	flush(10)      // 2007
	empty(1000)    // 2008..3007
	d := e.Doms[2]
	for pg := range d.Valid {
		d.Valid[pg] = true
	}
	invalid := func() (out []uint64) {
		for pg, v := range d.Valid {
			if !v {
				out = append(out, uint64(pg))
			}
		}
		return out
	}
	var vc uint32 // the acquirer's entry for domain 0
	for _, c := range []struct {
		upTo uint32
		inv  int
		want []uint64
	}{
		{2, 2, []uint64{1, 2}},
		{4, 4, []uint64{1, 2, 3, 4, 5, 6}},
		{4, 0, []uint64{1, 2, 3, 4, 5, 6}},             // no advance
		{3, 0, []uint64{1, 2, 3, 4, 5, 6}},             // behind the clock
		{1004, 0, []uint64{1, 2, 3, 4, 5, 6}},          // empty intervals only
		{2006, 3, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9}}, // jumps over two runs
		{3007, 1, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	} {
		if inv, _ := e.InvalidateUpTo(2, 0, c.upTo, 2, 0); inv != c.inv || !equalPages(invalid(), c.want) {
			t.Fatalf("up to %d: %d invalidated, invalid pages %v; want %d, %v", c.upTo, inv, invalid(), c.inv, c.want)
		}
		if vc = max(vc, c.upTo); d.VC[0] != vc {
			t.Fatalf("up to %d: vector clock entry %d, want %d", c.upTo, d.VC[0], vc)
		}
	}
	// The log read directly: from interval 0 past every run, from 1005
	// only what followed it, and a range of empty intervals only.
	if got := e.notices[0].since(0, 3007); !equalPages(got, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) {
		t.Fatalf("since(0, 3007) = %v", got)
	}
	if got := e.notices[0].since(1005, 2500); !equalPages(got, []uint64{8, 9, 10}) {
		t.Fatalf("since(1005, 2500) = %v", got)
	}
	if got := e.notices[0].since(1006, 2005); len(got) != 0 {
		t.Fatalf("since(1006, 2005) = %v, want none", got)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func equalPages(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
