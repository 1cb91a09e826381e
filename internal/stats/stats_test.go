package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCategoryStrings(t *testing.T) {
	want := []string{"Compute", "DataWait", "LockWait", "Barrier", "Handler", "CacheStall"}
	for c := Category(0); c < NumCategories; c++ {
		if c.String() != want[c] {
			t.Errorf("category %d = %q, want %q", c, c.String(), want[c])
		}
	}
	if s := Category(99).String(); !strings.Contains(s, "99") {
		t.Errorf("out-of-range category string %q", s)
	}
}

func TestProcTotal(t *testing.T) {
	var p Proc
	for c := Category(0); c < NumCategories; c++ {
		p.Cycles[c] = uint64(c) + 1
	}
	if p.Total() != 21 {
		t.Errorf("total = %d, want 21", p.Total())
	}
}

func TestRunAggregation(t *testing.T) {
	r := NewRun("x", 3)
	for i := range r.Procs {
		r.Procs[i].Cycles[Compute] = uint64(100 * (i + 1))
		r.Procs[i].Counters.PageFaults = uint64(i)
	}
	if got := r.TotalCycles(Compute); got != 600 {
		t.Errorf("total compute = %d, want 600", got)
	}
	if got := r.AggregateCounters().PageFaults; got != 3 {
		t.Errorf("aggregate faults = %d, want 3", got)
	}
}

func TestShareSumsToOne(t *testing.T) {
	f := func(vals [NumCategories]uint16) bool {
		r := NewRun("x", 1)
		any := false
		for c := Category(0); c < NumCategories; c++ {
			r.Procs[0].Cycles[c] = uint64(vals[c])
			if vals[c] > 0 {
				any = true
			}
		}
		var sum float64
		for c := Category(0); c < NumCategories; c++ {
			sum += r.Share(c)
		}
		if !any {
			return sum == 0
		}
		return sum > 0.999 && sum < 1.001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountersAddCoversEveryField(t *testing.T) {
	// Fill one counter struct with distinct values and add it to itself;
	// every field must double (catches fields forgotten in Add).
	a := Counters{
		Reads: 1, Writes: 2, L1Misses: 3, L2Misses: 4, PageFaults: 5,
		PageFetches: 6, TwinsMade: 7, DiffsCreated: 8, DiffsApplied: 9,
		PagesServed: 10, Invalidations: 11, LocalMisses: 12, RemoteMisses: 13,
		ThreeHopMisses: 14, BusTransactions: 15, LockAcquires: 16,
		RemoteLockMsgs: 17, Barriers: 18, TasksRun: 19, TasksStolen: 20,
	}
	b := a
	b.Add(&a)
	if b.Reads != 2 || b.Writes != 4 || b.L1Misses != 6 || b.L2Misses != 8 ||
		b.PageFaults != 10 || b.PageFetches != 12 || b.TwinsMade != 14 ||
		b.DiffsCreated != 16 || b.DiffsApplied != 18 || b.PagesServed != 20 ||
		b.Invalidations != 22 || b.LocalMisses != 24 || b.RemoteMisses != 26 ||
		b.ThreeHopMisses != 28 || b.BusTransactions != 30 || b.LockAcquires != 32 ||
		b.RemoteLockMsgs != 34 || b.Barriers != 36 || b.TasksRun != 38 || b.TasksStolen != 40 {
		t.Errorf("Add missed a field: %+v", b)
	}
}

func TestBreakdownTableFormat(t *testing.T) {
	r := NewRun("demo", 2)
	r.Procs[0].Cycles[Compute] = 42
	r.EndTime = 42
	r.RecordPhase("build", 7)
	out := r.BreakdownTable()
	for _, want := range []string{"demo", "Compute", "42", "phase build", "sum"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRecordPhaseAccumulates(t *testing.T) {
	r := NewRun("x", 2)
	r.RecordPhase("build", 100)
	r.RecordPhase("build", 50)
	r.RecordPhase("force", 10)
	if r.PhaseTimes["build"] != 150 {
		t.Errorf("build = %d, want 150 (accumulated)", r.PhaseTimes["build"])
	}
	if r.PhaseTimes["force"] != 10 {
		t.Errorf("force = %d, want 10", r.PhaseTimes["force"])
	}
}

func TestRecordPhaseNilMap(t *testing.T) {
	// A Run built by hand (not NewRun) has no phase map yet.
	r := &Run{Name: "bare", NumProcs: 1, Procs: make([]Proc, 1)}
	r.RecordPhase("p", 5)
	if r.PhaseTimes["p"] != 5 {
		t.Errorf("RecordPhase on nil map lost the value: %v", r.PhaseTimes)
	}
}

func TestShareKnownValues(t *testing.T) {
	r := NewRun("s", 2)
	r.Procs[0].Cycles[Compute] = 300
	r.Procs[1].Cycles[Compute] = 100
	r.Procs[0].Cycles[DataWait] = 400
	r.Procs[1].Cycles[BarrierWait] = 200
	// Total = 1000: Compute 40%, DataWait 40%, Barrier 20%.
	if got := r.Share(Compute); got != 0.4 {
		t.Errorf("Share(Compute) = %v, want 0.4", got)
	}
	if got := r.Share(DataWait); got != 0.4 {
		t.Errorf("Share(DataWait) = %v, want 0.4", got)
	}
	if got := r.Share(BarrierWait); got != 0.2 {
		t.Errorf("Share(BarrierWait) = %v, want 0.2", got)
	}
	if got := r.Share(LockWait); got != 0 {
		t.Errorf("Share(LockWait) = %v, want 0", got)
	}
}

func TestShareEmptyRunIsZero(t *testing.T) {
	r := NewRun("empty", 2)
	if got := r.Share(Compute); got != 0 {
		t.Errorf("Share on an all-zero run = %v, want 0 (not NaN)", got)
	}
}

func TestBreakdownTableSumsAndPhaseOrder(t *testing.T) {
	r := NewRun("lu/orig on svm", 2)
	r.EndTime = 500
	r.Procs[0].Cycles[Compute] = 120
	r.Procs[1].Cycles[Compute] = 80
	r.Procs[0].Cycles[Handler] = 30
	r.RecordPhase("zebra", 7)
	r.RecordPhase("alpha", 3)
	tbl := r.BreakdownTable()
	// The sum row reports per-category totals across processors.
	sumLine := ""
	for _, line := range strings.Split(tbl, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "sum") {
			sumLine = line
		}
	}
	if sumLine == "" {
		t.Fatalf("no sum row in table:\n%s", tbl)
	}
	if !strings.Contains(sumLine, "200") || !strings.Contains(sumLine, "230") {
		t.Errorf("sum row missing category total 200 or grand total 230: %q", sumLine)
	}
	// Phase rows render sorted by name for deterministic output.
	ia, iz := strings.Index(tbl, "alpha"), strings.Index(tbl, "zebra")
	if ia < 0 || iz < 0 || ia > iz {
		t.Errorf("phases not sorted by name (alpha@%d zebra@%d):\n%s", ia, iz, tbl)
	}
	// Table renders every processor row and one column per category.
	for _, want := range []string{"proc", "Compute", "DataWait", "Total", "end=500"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}
