package protocol

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// homeOneHost homes every page at domain 1; each domain is one processor
// and page contents changing under the caches is a no-op.
type homeOneHost struct{}

func (homeOneHost) HomeDomain(uint64) int           { return 1 }
func (homeOneHost) HandlerProc(dom int) int         { return dom }
func (homeOneHost) MemberRange(dom int) (int, int)  { return dom, dom + 1 }
func (homeOneHost) PageArrived(dom int, pg uint64)  {}
func (homeOneHost) DiffApplied(home int, pg uint64) {}

// newTestPageEngine builds an engine over np domains on a kernel that has
// run once, so the per-run counters the engine charges exist.
func newTestPageEngine(t *testing.T, np, npages int) (*PageEngine, *sim.Kernel) {
	t.Helper()
	k := sim.New(NewBusMachine("smp", MESI, busCfg, DefaultBusParams(), np), sim.Config{NumProcs: np})
	if _, err := k.RunErr("attach", func(*sim.Proc) {}); err != nil {
		t.Fatal(err)
	}
	e := NewPageEngine(PageConfig{Params: DefaultHLRCParams(), Domains: np, Host: homeOneHost{}, Scope: "test", Noun: "domain"})
	e.Init(k, npages)
	return e, k
}

// flushIntervals closes n intervals of domain 0, each writing two pages.
func flushIntervals(e *PageEngine, n int) {
	ps := e.P.PageSize
	for i := 0; i < n; i++ {
		e.Trap(0, 0, 0, uint64(2*i%64)*ps)
		e.Trap(0, 0, 0, uint64((2*i+1)%64)*ps)
		e.Flush(0, 0, 0)
	}
}

// The write-notice log is flat: after one warm-up run has grown it, a
// reinitialized engine flushes 10 000 intervals without allocating, and
// the invariant audit still counts the log's intervals.
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
	e.notices[0].ends = e.notices[0].ends[:n]
	if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "write log has 10000 interval entries, want 10001") {
		t.Fatalf("CheckInvariants with an interval missing from the log = %v", err)
	}
}

// An acquirer advancing over a range of intervals invalidates exactly the
// pages flushed in those intervals, read back from the flat log.
func TestInvalidateUpToReadsIntervals(t *testing.T) {
	e, _ := newTestPageEngine(t, 3, 16)
	ps := e.P.PageSize
	for _, pages := range [][]uint64{{1, 2}, {}, {3}, {4, 5, 6}} {
		for _, pg := range pages {
			e.Trap(0, 0, 0, pg*ps)
		}
		e.Flush(0, 0, 0)
	}
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
	if inv, _ := e.InvalidateUpTo(2, 0, 2, 2, 0); inv != 2 || !equalPages(invalid(), []uint64{1, 2}) {
		t.Fatalf("intervals 1-2: %d invalidated, invalid pages %v; want 2, [1 2]", inv, invalid())
	}
	if inv, _ := e.InvalidateUpTo(2, 0, 4, 2, 0); inv != 4 || !equalPages(invalid(), []uint64{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("intervals 3-4: %d invalidated, invalid pages %v; want 4, [1 .. 6]", inv, invalid())
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
