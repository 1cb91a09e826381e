package trace

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("Kind(%d) has no name: %q", k, s)
		}
	}
	if got := Kind(200).String(); !strings.HasPrefix(got, "Kind(") {
		t.Errorf("out-of-range kind = %q, want Kind(200)", got)
	}
	if PageFetch.ArgName() != "page" || BusTxn.ArgName() != "line" ||
		LockGrant.ArgName() != "lock" || Barrier.ArgName() != "epoch" {
		t.Error("ArgName mapping wrong")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: 123, Cost: 9, Arg: 7, Proc: 2, Kind: PageFetch}
	s := e.String()
	for _, want := range []string{"123", "p2", "PageFetch", "page=7", "cost=9"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
}

func TestRingWrapsAndSnapshotsInOrder(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Time: uint64(i)})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Errorf("snapshot holds %d events, want 4", len(snap))
	}
	for i, e := range snap {
		if want := uint64(6 + i); e.Time != want {
			t.Errorf("snapshot[%d].Time = %d, want %d (oldest-first)", i, e.Time, want)
		}
	}
	r.Reset()
	if len(r.Snapshot()) != 0 {
		t.Error("Reset did not clear the ring")
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(8)
	r.Emit(Event{Time: 1})
	r.Emit(Event{Time: 2})
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Time != 1 || snap[1].Time != 2 {
		t.Errorf("partial snapshot = %v", snap)
	}
}

func TestCountingAggregation(t *testing.T) {
	c := NewCounting(4)
	// Page 5 fetched twice by proc 0, once by proc 1; page 9 once.
	c.Emit(Event{Kind: PageFetch, Proc: 0, Arg: 5, Cost: 100})
	c.Emit(Event{Kind: PageFetch, Proc: 0, Arg: 5, Cost: 100})
	c.Emit(Event{Kind: PageFetch, Proc: 1, Arg: 5, Cost: 100})
	c.Emit(Event{Kind: PageFetch, Proc: 2, Arg: 9, Cost: 100})
	c.Emit(Event{Kind: DiffCreate, Proc: 1, Arg: 5, Cost: 10})
	c.Emit(Event{Kind: WriteTrap, Proc: 0, Arg: 5})
	c.Emit(Event{Kind: WriteTrap, Proc: 3, Arg: 5})
	c.Emit(Event{Kind: LockGrant, Proc: 0, Arg: 7})
	c.Emit(Event{Kind: LockGrant, Proc: 1, Arg: 7})
	c.Emit(Event{Kind: LockTransfer, Proc: 1, Arg: 7})

	if got := c.Count(PageFetch); got != 4 {
		t.Errorf("Count(PageFetch) = %d, want 4", got)
	}
	if got := c.Cost(PageFetch); got != 400 {
		t.Errorf("Cost(PageFetch) = %d, want 400", got)
	}
	pages := c.PageTotals()
	if len(pages) != 2 || pages[0].Page != 5 {
		t.Fatalf("PageTotals = %+v, want page 5 first", pages)
	}
	if pages[0].Fetches != 3 || pages[0].Diffs != 1 || pages[0].Writers != 2 || pages[0].MaxProc != 2 {
		t.Errorf("page 5 totals = %+v", pages[0])
	}
	locks := c.LockTotals()
	if len(locks) != 1 || locks[0].Lock != 7 || locks[0].Acquires != 2 || locks[0].Transfers != 1 {
		t.Errorf("LockTotals = %+v", locks)
	}
}

func TestCountingSortIsDeterministic(t *testing.T) {
	// Equal fetch counts must tie-break by page id ascending.
	c := NewCounting(2)
	for _, pg := range []uint64{30, 10, 20} {
		c.Emit(Event{Kind: PageFetch, Proc: 0, Arg: pg})
	}
	pages := c.PageTotals()
	if pages[0].Page != 10 || pages[1].Page != 20 || pages[2].Page != 30 {
		t.Errorf("tie-break order = %v, want ascending page ids", pages)
	}
}

// recorder counts Emit and Sample calls.
type recorder struct {
	events  int
	samples int
}

func (r *recorder) Emit(Event)                  { r.events++ }
func (r *recorder) Sample(uint64, []stats.Proc) { r.samples++ }

func TestTee(t *testing.T) {
	if Tee() != nil {
		t.Error("Tee() should be nil")
	}
	if Tee(nil, nil) != nil {
		t.Error("Tee(nil, nil) should be nil")
	}
	a := &recorder{}
	if got := Tee(nil, a); got != Sink(a) {
		t.Error("Tee with one non-nil sink should return it unwrapped")
	}
	b := &recorder{}
	tee := Tee(a, b)
	tee.Emit(Event{})
	if a.events != 1 || b.events != 1 {
		t.Errorf("fan-out failed: a=%d b=%d", a.events, b.events)
	}
	// A tee of samplers must itself be a Sampler.
	sp, ok := tee.(Sampler)
	if !ok {
		t.Fatal("Tee of Samplers does not implement Sampler")
	}
	sp.Sample(0, nil)
	if a.samples != 1 || b.samples != 1 {
		t.Errorf("sample fan-out failed: a=%d b=%d", a.samples, b.samples)
	}
}

func TestFormatEvents(t *testing.T) {
	s := FormatEvents([]Event{
		{Time: 1, Kind: PageFault, Arg: 3},
		{Time: 2, Kind: LockGrant, Arg: 7, Proc: 1},
	})
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "PageFault") || !strings.Contains(lines[1], "LockGrant") {
		t.Errorf("formatted events wrong:\n%s", s)
	}
}
