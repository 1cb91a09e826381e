package check

import (
	"runtime"
	"testing"

	_ "repro/internal/apps"
	"repro/internal/core"
	"repro/internal/harness"
)

const (
	sweepProcs = 8
	sweepScale = 0.25
)

// Every registered figure cell must run to completion — and verify — with
// the runtime invariant checker enabled.
func TestFigureCellsPassInvariantChecking(t *testing.T) {
	r := harness.NewRunner(sweepProcs, sweepScale)
	r.Check = true
	cells := FigureCells()
	if len(cells) < 20 {
		t.Fatalf("only %d figure cells registered, expected the full experiment matrix", len(cells))
	}
	r.RunParallel(runtime.GOMAXPROCS(0), cells)
	for _, f := range r.FailedCells() {
		t.Error(f)
	}
}

// Running the same experiment twice must produce byte-identical JSON: one
// representative cell per application, rotating over the platforms so every
// protocol model gets differential coverage.
func TestRunTwiceIsByteIdentical(t *testing.T) {
	plats := []string{"svm", "smp", "dsm", "svmsmp"}
	for i, app := range core.Apps() {
		spec := harness.Spec{
			App: app, Version: core.OrigVersion(app), Platform: plats[i%len(plats)],
			NumProcs: sweepProcs, Scale: sweepScale, Check: true,
		}
		if err := DiffRuns(spec); err != nil {
			t.Error(err)
		}
	}
}

// The computed result of an application must not depend on which platform
// simulated it: page-grained HLRC, a snooping bus, a hardware directory and
// the two-level hierarchy must all produce bit-identical fingerprints.
func TestResultsAgreeAcrossPlatforms(t *testing.T) {
	for _, app := range core.Apps() {
		ver := core.OrigVersion(app)
		var first uint64
		var firstPlat string
		for _, plat := range []string{"svm", "smp", "dsm", "svmsmp"} {
			run, err := harness.Execute(harness.Spec{
				App: app, Version: ver, Platform: plat,
				NumProcs: sweepProcs, Scale: sweepScale, Check: true,
			})
			if err != nil {
				t.Errorf("%s/%s on %s: %v", app, ver, plat, err)
				continue
			}
			fp := run.Result
			if firstPlat == "" {
				first, firstPlat = fp, plat
			} else if fp != first {
				t.Errorf("%s/%s: fingerprint %016x on %s != %016x on %s",
					app, ver, fp, plat, first, firstPlat)
			}
		}
	}
}

// For computations whose result is independent of the work partition, the
// fingerprint must also be stable across processor counts. Ocean is excluded:
// its residual is a floating-point sum over per-processor partials, so its
// grouping — and the low bits of the result — legitimately follow the
// partition (Verify still bounds the error at every processor count).
func TestResultsStableAcrossProcCounts(t *testing.T) {
	for _, app := range core.Apps() {
		if app == "ocean" {
			continue
		}
		ver := core.OrigVersion(app)
		var first uint64
		var firstNP int
		for _, np := range []int{4, 8} {
			run, err := harness.Execute(harness.Spec{
				App: app, Version: ver, Platform: "svm",
				NumProcs: np, Scale: sweepScale, Check: true,
			})
			if err != nil {
				t.Errorf("%s/%s P=%d: %v", app, ver, np, err)
				continue
			}
			fp := run.Result
			if firstNP == 0 {
				first, firstNP = fp, np
			} else if fp != first {
				t.Errorf("%s/%s: fingerprint %016x at P=%d != %016x at P=%d",
					app, ver, fp, np, first, firstNP)
			}
		}
	}
}

// Verification must hold at processor counts that do not divide the problem
// evenly (regression: volrend's blocked partition silently dropped the
// remainder tiles).
func TestVerifyAtAwkwardProcCounts(t *testing.T) {
	for _, app := range core.Apps() {
		ver := core.OrigVersion(app)
		if _, err := harness.Execute(harness.Spec{
			App: app, Version: ver, Platform: "svm",
			NumProcs: 5, Scale: sweepScale, Check: true,
		}); err != nil {
			t.Errorf("%s/%s P=5: %v", app, ver, err)
		}
	}
}
