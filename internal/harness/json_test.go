package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/trace"

	_ "repro/internal/apps"
)

func TestRunJSONSuccessShape(t *testing.T) {
	spec := Spec{App: "lu", Version: "orig", Platform: "svm", NumProcs: 2, Scale: 0.25}
	run, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunJSON(spec, run, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		App      string              `json:"app"`
		Version  string              `json:"version"`
		Platform string              `json:"platform"`
		Procs    int                 `json:"procs"`
		EndTime  uint64              `json:"end_time"`
		Cycles   map[string][]uint64 `json:"cycles"`
		Speedup  float64             `json:"speedup"`
		Error    *json.RawMessage    `json:"error"`
	}
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if got.App != "lu" || got.Version != "orig" || got.Platform != "svm" || got.Procs != 2 {
		t.Errorf("identity fields wrong: %+v", got)
	}
	if got.EndTime == 0 || got.Speedup != 1.5 {
		t.Errorf("end_time=%d speedup=%v, want nonzero and 1.5", got.EndTime, got.Speedup)
	}
	if got.Error != nil {
		t.Error("success shape carries an error object")
	}
	for cat, per := range got.Cycles {
		if len(per) != 2 {
			t.Errorf("category %s has %d per-proc entries, want 2", cat, len(per))
		}
	}
}

func TestRunErrorJSONShapeAndKinds(t *testing.T) {
	spec := Spec{App: "lu", Version: "orig", Platform: "svm", NumProcs: 2, Scale: 0.25}
	cases := []struct {
		err  error
		kind string
	}{
		{fmt.Errorf("cell: %w", &sim.ProcPanicError{Proc: 1, Value: "boom"}), "panic"},
		{fmt.Errorf("cell: %w", &sim.DeadlockError{Dump: "stuck"}), "deadlock"},
		{fmt.Errorf("cell: %w", &sim.InvariantError{Where: "platform", Detail: "bad"}), "invariant"},
		{fmt.Errorf("cell: %w", &VerifyError{Err: errors.New("wrong result")}), "verify"},
		{errors.New("no such app"), "error"},
	}
	for _, c := range cases {
		out, err := RunErrorJSON(spec, c.err)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			App   string `json:"app"`
			Procs int    `json:"procs"`
			Error struct {
				Kind    string `json:"kind"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatal(err)
		}
		if got.App != "lu" || got.Procs != 2 {
			t.Errorf("identity fields wrong: %+v", got)
		}
		if got.Error.Kind != c.kind {
			t.Errorf("kind = %q for %v, want %q", got.Error.Kind, c.err, c.kind)
		}
		if got.Error.Message == "" {
			t.Error("empty error message")
		}
	}
}

// A build that fails (indivisible 4-D block dimensions) must come back as an
// error a figure run can render, not a process crash.
func TestBuildFailureIsContained(t *testing.T) {
	_, err := Execute(Spec{App: "volrend", Version: "ds4d", Platform: "svm", NumProcs: 5, Scale: 0.25})
	if err == nil {
		t.Fatal("indivisible ds4d build succeeded, want contained error")
	}
	if out, jerr := RunErrorJSON(Spec{App: "volrend", Version: "ds4d", Platform: "svm", NumProcs: 5, Scale: 0.25}, err); jerr != nil {
		t.Fatalf("error not renderable as JSON: %v", jerr)
	} else if len(out) == 0 {
		t.Fatal("empty JSON error")
	}
}

// TestCellBodyStoreRoundTrip: the canonical cell document is RunJSON's
// bytes plus a newline, cold, and identical when a fresh memo over the
// same store directory answers it from the store without simulating.
func TestCellBodyStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{App: "radix", Version: "orig", Platform: "svm", NumProcs: 4, Scale: 0.125}
	run, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunJSON(spec, run, 0)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')

	for i, label := range []string{"cold", "warm"} {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		memo := NewMemo(st)
		got, err := CellBody(memo, spec, false)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s body differs from RunJSON+newline (%d vs %d bytes)", label, len(got), len(want))
		}
		if cs := memo.Stats(); cs.StoreHits != uint64(i) || cs.Executions != uint64(1-i) {
			t.Errorf("%s: %v, want %d store hit(s) and %d simulation(s)", label, cs, i, 1-i)
		}
	}
}

func TestCellBodySpeedupAndErrors(t *testing.T) {
	memo := NewMemo(nil)
	spec := Spec{App: "radix", Version: "local", Platform: "svm", NumProcs: 2, Scale: 0.125}
	body, err := CellBody(memo, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	run, _ := memo.Run(spec)
	base, _ := memo.Run(spec.Baseline())
	want, _ := RunJSON(spec, run, float64(base.EndTime)/float64(run.EndTime))
	if !bytes.Equal(body, append(want, '\n')) || !strings.Contains(string(body), `"speedup":`) {
		t.Errorf("speedup body is not RunJSON with the baseline's speedup:\n%s", body)
	}

	// An unknown app renders as its structured error document.
	bad := Spec{App: "nosuchapp", NumProcs: 2}
	body, err = CellBody(memo, bad, false)
	if err == nil {
		t.Fatal("unknown app: no error")
	}
	want, _ = RunErrorJSON(bad, err)
	if !bytes.Equal(body, append(want, '\n')) {
		t.Errorf("unknown app body is not its RunErrorJSON document:\n%s", body)
	}

	// A failed baseline renders as the baseline's error document.
	memo = NewMemo(nil)
	memo.Exec = func(s Spec) (*stats.Run, error) {
		if s.NumProcs == 1 {
			return nil, errors.New("baseline failed")
		}
		return fakeRun(s), nil
	}
	body, err = CellBody(memo, spec, true)
	if err == nil {
		t.Fatal("failed baseline: no error")
	}
	want, _ = RunErrorJSON(spec.Baseline(), err)
	if !bytes.Equal(body, append(want, '\n')) {
		t.Errorf("failed baseline body is not the baseline's RunErrorJSON document:\n%s", body)
	}
}

// TestSpecBaseline pins the speedup baseline: the original version on one
// processor with the cell's platform, scale, checking and quantum, and
// none of its diagnostics or observability hooks.
func TestSpecBaseline(t *testing.T) {
	s := Spec{
		App: "radix", Version: "local", Platform: "dsm", NumProcs: 8, Scale: 0.5,
		FreeCSFaults: true, SkipVerify: true, Check: true, Quantum: 77,
		TraceSink: trace.NewCounting(8), TraceRing: 16, SampleInterval: 1000,
	}
	want := Spec{App: "radix", Version: "orig", Platform: "dsm", NumProcs: 1, Scale: 0.5, Check: true, Quantum: 77}
	if got := s.Baseline(); got != want {
		t.Errorf("Baseline() = %+v, want %+v", got, want)
	}
}
