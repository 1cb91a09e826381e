package harness

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

// boomApp is a deliberately-misbehaving test-only application: on any run
// with more than one processor, the highest-numbered processor panics after
// the first barrier. Its uniprocessor run (the speedup baseline) succeeds,
// so figures show a completed baseline and an error cell — the exact
// containment scenario the parallel engine must survive.
type boomApp struct{}

func (boomApp) Name() string { return "zz-boom" }

func (boomApp) Versions() []core.Version {
	return []core.Version{{Name: "orig", Class: core.Orig, Desc: "panics on the last processor when P > 1"}}
}

func (boomApp) Build(version string, scale float64, as *mem.AddressSpace, np int) (core.Instance, error) {
	return boomInstance{}, nil
}

type boomInstance struct{}

func (boomInstance) Body(p *sim.Proc) {
	p.Compute(100)
	p.Barrier()
	if p.NP() > 1 && p.ID() == p.NP()-1 {
		panic("boom: deliberate test failure")
	}
	p.Barrier()
}

func (boomInstance) Verify() error       { return nil }
func (boomInstance) Fingerprint() uint64 { return 0 }

func init() { core.Register(boomApp{}) }

func TestParallelMatchesSerial(t *testing.T) {
	cells := []Cell{
		{App: "radix", Version: "orig", Platform: "svm", Speedup: true},
		{App: "radix", Version: "local", Platform: "svm", Speedup: true},
		{App: "radix", Version: "orig", Platform: "smp", Speedup: true},
		{App: "radix", Version: "orig", Platform: "dsm"},
		{App: "lu", Version: "orig", Platform: "svm"},
	}
	serial := NewRunner(4, 0.125)
	serial.RunParallel(1, cells)
	par := NewRunner(4, 0.125)
	par.RunParallel(8, cells)
	for _, c := range cells {
		a, err := serial.Run(c.App, c.Version, c.Platform)
		if err != nil {
			t.Fatalf("serial %v: %v", c, err)
		}
		b, err := par.Run(c.App, c.Version, c.Platform)
		if err != nil {
			t.Fatalf("parallel %v: %v", c, err)
		}
		if a.EndTime != b.EndTime {
			t.Errorf("%s/%s@%s: serial end time %d != parallel %d", c.App, c.Version, c.Platform, a.EndTime, b.EndTime)
		}
		if c.Speedup {
			sa, _ := serial.Speedup(c.App, c.Version, c.Platform)
			sb, _ := par.Speedup(c.App, c.Version, c.Platform)
			if sa != sb {
				t.Errorf("%s/%s@%s: serial speedup %v != parallel %v", c.App, c.Version, c.Platform, sa, sb)
			}
		}
	}
}

func TestPanickingCellContained(t *testing.T) {
	before := runtime.NumGoroutine()
	r := NewRunner(4, 0.125)
	r.RunParallel(4, []Cell{
		{App: "zz-boom", Version: "orig", Platform: "svm", Speedup: true},
		{App: "radix", Version: "orig", Platform: "svm", Speedup: true},
	})

	// The bad cell is memoized as an error naming the failing processor.
	_, err := r.Run("zz-boom", "orig", "svm")
	var pe *sim.ProcPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want wrapped *sim.ProcPanicError", err)
	}
	if pe.Proc != 3 {
		t.Errorf("failing proc = %d, want 3", pe.Proc)
	}
	// Its uniprocessor baseline succeeded.
	if _, err := r.Baseline("zz-boom", "svm"); err != nil {
		t.Errorf("baseline should succeed at P=1: %v", err)
	}
	// The healthy cell completed.
	if _, err := r.Speedup("radix", "orig", "svm"); err != nil {
		t.Errorf("healthy cell failed: %v", err)
	}
	// The failure is reported once.
	fails := r.FailedCells()
	if len(fails) != 1 || !strings.Contains(fails[0], "zz-boom") {
		t.Errorf("FailedCells = %v, want exactly the zz-boom cell", fails)
	}

	// No parked processor goroutines leaked.
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Errorf("goroutines grew from %d to %d", before, n)
	}
}

func TestErrorRowKeepsFigureAlive(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig2 matrix skipped in -short mode")
	}
	r := NewRunner(2, 0.125)
	f, err := FindFigure("fig2")
	if err != nil {
		t.Fatal(err)
	}
	r.RunParallel(8, f.Cells())
	out, err := f.Run(r)
	if err != nil {
		t.Fatalf("figure aborted instead of printing an error row: %v", err)
	}
	var boomRow string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "zz-boom") {
			boomRow = line
		}
	}
	if !strings.Contains(boomRow, "error") {
		t.Errorf("zz-boom row missing error cells:\n%s", out)
	}
	if !strings.Contains(out, "! zz-boom/orig@svm:") {
		t.Errorf("missing failure note under the table:\n%s", out)
	}
	for _, app := range []string{"lu", "radix", "ocean"} {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, app) && strings.Contains(line, "error") {
				t.Errorf("healthy app %s rendered as error:\n%s", app, line)
			}
		}
	}
}

func TestMemoKeyCoversDiagnosticFields(t *testing.T) {
	base := Spec{App: "lu", Version: "orig", Platform: "svm", NumProcs: 16, Scale: 1}
	variants := []Spec{
		{App: "lu", Version: "orig", Platform: "svm", NumProcs: 16, Scale: 1, FreeCSFaults: true},
		{App: "lu", Version: "orig", Platform: "svm", NumProcs: 16, Scale: 2},
		{App: "lu", Version: "orig", Platform: "svm", NumProcs: 16, Scale: 1, SkipVerify: true},
	}
	for _, v := range variants {
		if v.memoKey() == base.memoKey() {
			t.Errorf("memo key %q does not distinguish %+v", base.memoKey(), v)
		}
	}
	if base.memoKey() != base.memoKey() {
		t.Error("memo key not stable")
	}
}

// TestForEachBoundedAndCancelable pins the pool contract: every item is
// passed to fn exactly once, never more than workers calls run at a time,
// and once ctx is done no new item starts while in-flight calls finish.
func TestForEachBoundedAndCancelable(t *testing.T) {
	items := make([]int, 40)
	for i := range items {
		items[i] = i
	}
	var mu sync.Mutex
	seen := map[int]int{}
	running, peak := 0, 0
	ForEach(context.Background(), 3, items, func(i int) {
		mu.Lock()
		seen[i]++
		running++
		peak = max(peak, running)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		running--
		mu.Unlock()
	})
	if len(seen) != len(items) {
		t.Errorf("fn saw %d distinct items, want %d", len(seen), len(items))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("item %d passed to fn %d times", i, n)
		}
	}
	if peak > 3 {
		t.Errorf("%d concurrent calls, want at most 3", peak)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	ForEach(ctx, 2, items, func(int) {
		if started.Add(1) == 4 {
			cancel()
		}
	})
	// After the cancel, at most one item per worker can already be in a
	// worker's hands or racing the feeder's select.
	if n := started.Load(); n < 4 || n > 4+2 {
		t.Errorf("%d items started after canceling at the 4th, want 4..6", n)
	}
}
