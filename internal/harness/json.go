package harness

import (
	"encoding/json"
	"errors"

	"repro/internal/sim"
	"repro/internal/stats"
)

// runJSON is the machine-readable form of one experiment, produced by
// RunJSON for CellBody and the engine goldens.
type runJSON struct {
	App      string  `json:"app"`
	Version  string  `json:"version"`
	Platform string  `json:"platform"`
	Procs    int     `json:"procs"`
	Scale    float64 `json:"scale"`
	EndTime  uint64  `json:"end_time"`
	// Cycles maps each breakdown category to its per-processor cycle
	// counts, index = processor id.
	Cycles map[string][]uint64 `json:"cycles"`
	// Counters is the run's aggregate event counts (sum over processors).
	Counters stats.Counters `json:"counters"`
	Speedup  float64        `json:"speedup,omitempty"`
	// Phases holds named phase durations when the application records them.
	Phases map[string]uint64 `json:"phases,omitempty"`
}

// RunJSON renders one run as indented JSON: identity fields from the spec,
// per-processor cycles for every breakdown category, aggregate counters, and
// the speedup when the caller computed one (pass 0 to omit it).
func RunJSON(s Spec, run *stats.Run, speedup float64) ([]byte, error) {
	s = s.withDefaults()
	out := runJSON{
		App:      s.App,
		Version:  s.Version,
		Platform: s.Platform,
		Procs:    s.NumProcs,
		Scale:    s.Scale,
		EndTime:  run.EndTime,
		Cycles:   map[string][]uint64{},
		Counters: run.AggregateCounters(),
		Speedup:  speedup,
	}
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		per := make([]uint64, len(run.Procs))
		for i := range run.Procs {
			per[i] = run.Procs[i].Cycles[c]
		}
		out.Cycles[c.String()] = per
	}
	if len(run.PhaseTimes) > 0 {
		out.Phases = run.PhaseTimes
	}
	return json.MarshalIndent(out, "", "  ")
}

// CellBody renders one cell through memo into the canonical single-cell
// document, trailing newline included: the RunJSON document, carrying the
// speedup over spec.Baseline() when speedup is set. A failed cell, or a
// failed baseline, renders as that spec's RunErrorJSON document, and the
// failure is returned beside it. CellBody is the one producer of these
// bytes: `svmsim -json` prints them and a campaign fingerprints them, so a
// cell fingerprints the same whichever tool produced it.
func CellBody(memo *Memo, spec Spec, speedup bool) ([]byte, error) {
	run, err := memo.Run(spec)
	if err != nil {
		return errorBody(spec, err)
	}
	var spFactor float64
	if speedup {
		base := spec.Baseline()
		brun, err := memo.Run(base)
		if err != nil {
			return errorBody(base, err)
		}
		spFactor = float64(brun.EndTime) / float64(run.EndTime)
	}
	b, err := RunJSON(spec, run, spFactor)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// errorBody is CellBody's document for a failed spec.
func errorBody(s Spec, err error) ([]byte, error) {
	b, jerr := RunErrorJSON(s, err)
	if jerr != nil {
		return nil, jerr
	}
	return append(b, '\n'), err
}

// runErrorJSON is the machine-readable form of a FAILED experiment: the same
// identity fields as runJSON, with a structured error object in place of the
// results, so scripted pipelines can distinguish a failed cell from a
// missing one and branch on the failure kind.
type runErrorJSON struct {
	App      string    `json:"app"`
	Version  string    `json:"version"`
	Platform string    `json:"platform"`
	Procs    int       `json:"procs"`
	Scale    float64   `json:"scale"`
	Error    errorJSON `json:"error"`
}

type errorJSON struct {
	// Kind classifies the failure: "panic" (application or platform panic
	// contained by the kernel), "deadlock", "invariant" (runtime checker
	// violation), "verify" (wrong computed result), or "error".
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// RunErrorJSON renders a failed experiment as indented JSON.
func RunErrorJSON(s Spec, err error) ([]byte, error) {
	s = s.withDefaults()
	out := runErrorJSON{
		App:      s.App,
		Version:  s.Version,
		Platform: s.Platform,
		Procs:    s.NumProcs,
		Scale:    s.Scale,
		Error:    errorJSON{Kind: errorKind(err), Message: err.Error()},
	}
	return json.MarshalIndent(out, "", "  ")
}

// errorKind maps an execution error to its JSON kind string.
func errorKind(err error) string {
	var (
		pe *sim.ProcPanicError
		de *sim.DeadlockError
		ie *sim.InvariantError
		ve *VerifyError
		se *StoredError
	)
	switch {
	case errors.As(err, &se):
		// A failure replayed from the persistent store keeps its original
		// kind even though the concrete error type is gone.
		return se.Kind
	case errors.As(err, &pe):
		return "panic"
	case errors.As(err, &de):
		return "deadlock"
	case errors.As(err, &ie):
		return "invariant"
	case errors.As(err, &ve):
		return "verify"
	default:
		return "error"
	}
}
