package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
	"repro/internal/store"
)

// fakeRun fabricates a deterministic result for executor stubs, so cache
// tests do not pay for real simulations.
func fakeRun(s Spec) *stats.Run {
	r := stats.NewRun(s.label(), s.NumProcs)
	r.EndTime = 1000 + uint64(s.NumProcs)
	for i := range r.Procs {
		r.Procs[i].Cycles[stats.Compute] = r.EndTime
	}
	return r
}

// TestMemoKeyAppliesDefaults: the exported MemoKey (the campaign journal's
// cell key) must treat a defaulted spec and its explicit spelling as the
// same cell, or equivalent cells would be journaled twice.
func TestMemoKeyAppliesDefaults(t *testing.T) {
	short := Spec{App: "radix"}
	full := Spec{App: "radix", Version: "orig", Platform: "svm", NumProcs: 16, Scale: 1}
	if short.MemoKey() != full.MemoKey() {
		t.Errorf("MemoKey(%+v) = %q, want %q", short, short.MemoKey(), full.MemoKey())
	}
	other := Spec{App: "radix", NumProcs: 8}
	if short.MemoKey() == other.MemoKey() {
		t.Error("MemoKey does not distinguish processor counts")
	}
}

// TestMemoStampede is the cache-stampede test: N concurrent requests for
// one cold cell must perform exactly one simulation, and every requester
// must see byte-identical RunJSON.
func TestMemoStampede(t *testing.T) {
	var execs atomic.Uint64
	gate := make(chan struct{})
	m := NewMemo(nil)
	m.Exec = func(s Spec) (*stats.Run, error) {
		execs.Add(1)
		<-gate // hold every early requester at the singleflight barrier
		return fakeRun(s), nil
	}
	spec := Spec{App: "radix", Version: "orig", Platform: "svm", NumProcs: 4, Scale: 0.125}

	const n = 32
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			run, err := m.Run(spec)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			b, err := RunJSON(spec, run, 0)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			bodies[i] = b
		}(i)
	}
	close(start)
	close(gate)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Errorf("cold cell executed %d times under %d concurrent requests, want exactly 1", got, n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d response differs from request 0", i)
		}
	}
	cs := m.Stats()
	if cs.Executions != 1 || cs.MemoMisses != 1 || cs.MemoHits != n-1 {
		t.Errorf("stats = %+v, want 1 execution, 1 miss, %d hits", cs, n-1)
	}
}

// TestMemoStoreCorruptionRecomputes: a truncated or garbage store entry is
// recomputed and overwritten, with no error surfaced to the caller.
func TestMemoStoreCorruptionRecomputes(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Uint64
	newMemo := func() *Memo {
		m := NewMemo(st)
		m.Exec = func(s Spec) (*stats.Run, error) {
			execs.Add(1)
			return fakeRun(s), nil
		}
		return m
	}
	spec := Spec{App: "lu", Version: "orig", Platform: "svm", NumProcs: 4, Scale: 0.5}

	// Cold: computed and persisted.
	if _, err := newMemo().Run(spec); err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 1 {
		t.Fatalf("cold run executed %d times", execs.Load())
	}

	// Corrupt every entry in the store directory.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), ".json") {
			p := filepath.Join(dir, de.Name())
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, raw[:len(raw)/3], 0o666); err != nil {
				t.Fatal(err)
			}
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("no persisted entry found to corrupt")
	}

	// A fresh memo (fresh process, in effect) recomputes silently...
	run, err := newMemo().Run(spec)
	if err != nil {
		t.Fatalf("corrupt entry surfaced an error: %v", err)
	}
	if run == nil || run.EndTime == 0 {
		t.Fatal("recomputed run missing")
	}
	if execs.Load() != 2 {
		t.Fatalf("after corruption executed %d times total, want 2", execs.Load())
	}

	// ...and overwrites the entry: a third memo hits the store, zero sims.
	m3 := newMemo()
	if _, err := m3.Run(spec); err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 2 {
		t.Errorf("healed entry not served from store: %d executions total", execs.Load())
	}
	if cs := m3.Stats(); cs.StoreHits != 1 || cs.Executions != 0 {
		t.Errorf("third memo stats = %+v, want 1 store hit, 0 executions", cs)
	}
}

// TestMemoPersistsFailures: deterministic failures round-trip through the
// store with their JSON kind intact, so warm reruns of figures with error
// cells perform zero simulations and render identically.
func TestMemoPersistsFailures(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Uint64
	newMemo := func() *Memo {
		m := NewMemo(st)
		m.Exec = func(s Spec) (*stats.Run, error) {
			execs.Add(1)
			return nil, fmt.Errorf("%s: %w", s.label(), &VerifyError{Err: fmt.Errorf("checksum mismatch")})
		}
		return m
	}
	spec := Spec{App: "lu", Version: "orig", Platform: "svm", NumProcs: 4, Scale: 0.5}

	_, errCold := newMemo().Run(spec)
	if errCold == nil {
		t.Fatal("want error")
	}
	_, errWarm := newMemo().Run(spec)
	if errWarm == nil {
		t.Fatal("want replayed error")
	}
	if execs.Load() != 1 {
		t.Errorf("failure executed %d times, want 1 (memoized across processes)", execs.Load())
	}
	if errWarm.Error() != errCold.Error() {
		t.Errorf("replayed message %q != original %q", errWarm, errCold)
	}
	if got, want := errorKind(errWarm), errorKind(errCold); got != want {
		t.Errorf("replayed kind %q != original %q", got, want)
	}
	ja, _ := RunErrorJSON(spec, errCold)
	jb, _ := RunErrorJSON(spec, errWarm)
	if !bytes.Equal(ja, jb) {
		t.Errorf("error JSON differs warm vs cold:\n%s\n%s", ja, jb)
	}
}

// TestTraceSpecsBypassCache: observability hooks are excluded from the memo
// key, so specs carrying them must never be served from (or written to) the
// cache — a cache hit would silently emit no events.
func TestTraceSpecsBypassCache(t *testing.T) {
	var execs atomic.Uint64
	m := NewMemo(nil)
	m.Exec = func(s Spec) (*stats.Run, error) {
		execs.Add(1)
		return fakeRun(s), nil
	}
	spec := Spec{App: "radix", Version: "orig", Platform: "svm", NumProcs: 2, Scale: 0.125, TraceRing: 64}
	for i := 0; i < 3; i++ {
		if _, err := m.Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	if execs.Load() != 3 {
		t.Errorf("trace-carrying spec executed %d times for 3 runs, want 3 (no caching)", execs.Load())
	}
}

// warmRerunCells picks the figure matrix for the warm-rerun test: the full
// `figures -all` cell set normally, a small figure in -short mode (the
// race-instrumented CI leg).
func warmRerunCells() []Cell {
	if testing.Short() {
		f, _ := FindFigure("fig17")
		return f.Cells()
	}
	var cells []Cell
	for _, f := range Figures() {
		cells = append(cells, f.Cells()...)
	}
	return cells
}

// TestWarmFiguresRerunZeroSimulations: after a cold `figures -all -store`
// pass, a second full pass over the same store performs zero simulations
// and renders byte-identical figures.
func TestWarmFiguresRerunZeroSimulations(t *testing.T) {
	dir := t.TempDir()
	cells := warmRerunCells()

	render := func(r *Runner) string {
		var b strings.Builder
		for _, f := range Figures() {
			if testing.Short() && f.ID != "fig17" {
				continue
			}
			out, err := f.Run(r)
			if err != nil {
				t.Fatalf("%s: %v", f.ID, err)
			}
			b.WriteString(out)
		}
		return b.String()
	}

	stCold, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewRunnerWith(4, 0.125, NewMemo(stCold))
	cold.RunParallel(0, cells)
	coldOut := render(cold)
	if cs := cold.CacheStats(); cs.Executions == 0 {
		t.Fatal("cold pass performed no simulations — test is vacuous")
	}

	stWarm, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewRunnerWith(4, 0.125, NewMemo(stWarm))
	warm.RunParallel(0, cells)
	warmOut := render(warm)

	cs := warm.CacheStats()
	if cs.Executions != 0 {
		t.Errorf("warm rerun performed %d simulations, want 0 (stats: %v)", cs.Executions, cs)
	}
	if cs.StoreHits == 0 || cs.StoreMisses != 0 {
		t.Errorf("warm rerun store traffic = %d hits / %d misses, want all hits", cs.StoreHits, cs.StoreMisses)
	}
	if warmOut != coldOut {
		t.Error("warm figures render differs from cold render")
	}
}
