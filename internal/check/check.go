// Package check is the simulator's differential and determinism harness —
// the testing half of the runtime invariant checker (sim.Config.Check).
//
// The invariant checker audits protocol state from the inside while a
// simulation runs: scheduler virtual-time monotonicity, HLRC twin/diff
// balance and vector-clock monotonicity, MESI directory/cache consistency,
// resource occupancy bounds, and the accounting identity that every
// processor's breakdown categories sum exactly to its final clock. This
// package attacks the same correctness question from the outside:
//
//   - every registered figure cell must run to completion with invariant
//     checking enabled and match the committed goldens journal
//     (campaigns/goldens.json sets "check": true);
//   - running the same experiment twice must produce byte-identical
//     machine-readable output (no map-iteration order, unseeded randomness
//     or goroutine scheduling may leak into results);
//   - the computed RESULT of an application version must not depend on
//     which platform simulated it or (for order-independent computations)
//     on the processor count — compared by result fingerprints
//     (core.Instance.Fingerprint);
//   - result verification must hold across processor counts, including
//     ones that do not divide the problem evenly.
//
// Checking is a per-cell setting (harness.Spec.Check): these tests, the app
// suites and the goldens campaign turn it on for the cells they run.
package check

import (
	"bytes"
	"fmt"

	"repro/internal/harness"
)

// FigureCells returns every distinct (app, version, platform) cell used by
// the registered figures, in first-appearance order. Speedup flags are
// dropped: the checker cares about the cell's own execution, and baselines
// are exercised separately.
func FigureCells() []harness.Cell {
	seen := map[string]bool{}
	var out []harness.Cell
	for _, f := range harness.Figures() {
		for _, c := range f.Cells() {
			key := c.App + "/" + c.Version + "@" + c.Platform
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, harness.Cell{App: c.App, Version: c.Version, Platform: c.Platform})
		}
	}
	return out
}

// DiffRuns executes spec twice from scratch and compares the rendered JSON
// byte for byte. Any difference — cycle counts, counters, phase times — is
// nondeterminism in the simulator or the application and is returned as an
// error naming the cell.
func DiffRuns(spec harness.Spec) error {
	var outs [2][]byte
	for i := range outs {
		run, err := harness.Execute(spec)
		if err != nil {
			return fmt.Errorf("repetition %d: %w", i+1, err)
		}
		out, err := harness.RunJSON(spec, run, 0)
		if err != nil {
			return fmt.Errorf("repetition %d: %w", i+1, err)
		}
		outs[i] = out
	}
	if !bytes.Equal(outs[0], outs[1]) {
		return fmt.Errorf("%s/%s on %s (P=%d): two runs produced different results (nondeterministic simulation)",
			spec.App, spec.Version, spec.Platform, spec.NumProcs)
	}
	return nil
}
