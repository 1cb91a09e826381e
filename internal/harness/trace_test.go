package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	_ "repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestExecuteWithTraceSinks runs a real application with both a counting sink
// and a Chrome exporter attached, checking the acceptance criteria end to
// end: the exporter's output is valid trace-event JSON with processor and
// resource tracks, and the counting sink's totals match the run's aggregate
// counters exactly.
func TestExecuteWithTraceSinks(t *testing.T) {
	counting := trace.NewCounting(4)
	var buf bytes.Buffer
	chrome := trace.NewChrome(&buf, 50000)
	run, err := Execute(Spec{
		App: "radix", Scale: 0.25, NumProcs: 4,
		TraceSink: trace.Tee(counting, chrome),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := chrome.Close(); err != nil {
		t.Fatal(err)
	}

	agg := run.AggregateCounters()
	if got := counting.Count(trace.PageFetch); got != agg.PageFetches {
		t.Errorf("PageFetch events = %d, counters say %d", got, agg.PageFetches)
	}
	if got := counting.Count(trace.LockGrant); got != agg.LockAcquires {
		t.Errorf("LockGrant events = %d, counters say %d", got, agg.LockAcquires)
	}
	if got := counting.Count(trace.TwinCreate); got != agg.TwinsMade {
		t.Errorf("TwinCreate events = %d, counters say %d", got, agg.TwinsMade)
	}
	if got := counting.Count(trace.DiffCreate); got != agg.DiffsCreated {
		t.Errorf("DiffCreate events = %d, counters say %d", got, agg.DiffsCreated)
	}
	if got := counting.Count(trace.Invalidate); got != agg.Invalidations {
		t.Errorf("Invalidate events = %d, counters say %d", got, agg.Invalidations)
	}

	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	var xEvents, cEvents int
	pids := map[float64]bool{}
	for _, e := range evs {
		switch e["ph"] {
		case "X":
			xEvents++
		case "C":
			cEvents++
		}
		if pid, ok := e["pid"].(float64); ok {
			pids[pid] = true
		}
	}
	if xEvents == 0 {
		t.Error("no complete events in trace")
	}
	if cEvents == 0 {
		t.Error("no breakdown counter samples in trace")
	}
	if !pids[0] || !pids[1] {
		t.Errorf("trace missing processor (pid 0) or resource (pid 1) tracks: %v", pids)
	}
}

// deadlockApp is a test-only application whose run deadlocks on more than
// one processor: processor 0 takes lock 7 and waits at the barrier, while
// every other processor waits for lock 7. Its uniprocessor run (the speedup
// baseline) completes.
type deadlockApp struct{}

func (deadlockApp) Name() string { return "zz-deadlock" }

func (deadlockApp) Versions() []core.Version {
	return []core.Version{{Name: "orig", Class: core.Orig, Desc: "deadlocks on lock 7 when P > 1"}}
}

func (deadlockApp) Build(version string, scale float64, as *mem.AddressSpace, np int) (core.Instance, error) {
	return deadlockInstance{}, nil
}

type deadlockInstance struct{}

func (deadlockInstance) Body(p *sim.Proc) {
	if p.ID() == 0 {
		p.Lock(7)
		p.Barrier()
		return
	}
	p.Compute(1000)
	p.Lock(7)
	p.Unlock(7)
	p.Barrier()
}

func (deadlockInstance) Verify() error       { return nil }
func (deadlockInstance) Fingerprint() uint64 { return 0 }

func init() { core.Register(deadlockApp{}) }

// TestExecuteRingSeesDeadlock: a ring installed as the trace sink of a
// deadlocking run ends with the lock requests that never got granted.
func TestExecuteRingSeesDeadlock(t *testing.T) {
	ring := trace.NewRing(8)
	_, err := Execute(Spec{App: "zz-deadlock", Version: "orig", Platform: "svm", NumProcs: 4, Scale: 1, TraceSink: ring})
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want a wrapped *sim.DeadlockError", err)
	}
	evs := ring.Snapshot()
	if len(evs) == 0 || evs[len(evs)-1].Kind != trace.LockRequest {
		t.Fatalf("ring does not end with the blocked lock request:\n%s", trace.FormatEvents(evs))
	}
}

// TestObservabilityLeavesCellBodyUnchanged: installing sinks — a counting
// sink, a sampling Chrome exporter and a post-mortem ring, all at once —
// changes no byte of the canonical cell document, for a passing cell and
// for a failing one.
func TestObservabilityLeavesCellBodyUnchanged(t *testing.T) {
	for _, spec := range []Spec{
		{App: "radix", Version: "orig", Platform: "svm", NumProcs: 4, Scale: 0.125},
		{App: "zz-deadlock", Version: "orig", Platform: "svm", NumProcs: 4, Scale: 1},
	} {
		plain, _, perr := CellBody(NewMemo(nil), spec, true)
		var buf bytes.Buffer
		chrome := trace.NewChrome(&buf, 5000)
		ring := trace.NewRing(16)
		spec.TraceSink = trace.Tee(trace.NewCounting(spec.NumProcs), chrome, ring)
		traced, _, terr := CellBody(NewMemo(nil), spec, true)
		if err := chrome.Close(); err != nil {
			t.Fatal(err)
		}
		if (perr == nil) != (spec.App == "radix") {
			t.Errorf("%s: err = %v", spec.App, perr)
		}
		if (perr == nil) != (terr == nil) {
			t.Errorf("%s: err %v without sinks, %v with", spec.App, perr, terr)
		}
		if !bytes.Equal(plain, traced) {
			t.Errorf("%s: cell document differs with sinks installed:\n%s\n---\n%s", spec.App, plain, traced)
		}
		if len(ring.Snapshot()) == 0 || !bytes.Contains(buf.Bytes(), []byte(`"ph":"X"`)) {
			t.Errorf("%s: the sinks saw no events", spec.App)
		}
	}
}

func TestRunJSONShape(t *testing.T) {
	spec := Spec{App: "radix", Scale: 0.25, NumProcs: 4}
	run, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunJSON(spec, run, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		App      string              `json:"app"`
		Version  string              `json:"version"`
		Platform string              `json:"platform"`
		Procs    int                 `json:"procs"`
		EndTime  uint64              `json:"end_time"`
		Cycles   map[string][]uint64 `json:"cycles"`
		Speedup  float64             `json:"speedup"`
	}
	if err := json.Unmarshal(out, &d); err != nil {
		t.Fatalf("RunJSON output is not valid JSON: %v", err)
	}
	if d.App != "radix" || d.Version != "orig" || d.Platform != "svm" || d.Procs != 4 {
		t.Errorf("identity fields wrong: %+v", d)
	}
	if d.EndTime != run.EndTime {
		t.Errorf("end_time = %d, want %d", d.EndTime, run.EndTime)
	}
	if d.Speedup != 1.5 {
		t.Errorf("speedup = %v, want 1.5", d.Speedup)
	}
	if len(d.Cycles) != 6 {
		t.Fatalf("got %d cycle categories, want 6", len(d.Cycles))
	}
	for cat, per := range d.Cycles {
		if len(per) != 4 {
			t.Errorf("category %s has %d entries, want 4", cat, len(per))
		}
	}
	// Per-proc compute must match the run record.
	for i, v := range d.Cycles["Compute"] {
		if v != run.Procs[i].Cycles[0] {
			t.Errorf("Compute[%d] = %d, want %d", i, v, run.Procs[i].Cycles[0])
		}
	}
}
