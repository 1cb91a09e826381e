package check

import (
	"fmt"
	"strings"
	"testing"

	_ "repro/internal/apps"
	"repro/internal/core"
	"repro/internal/harness"
)

const (
	sweepProcs = 8
	sweepScale = 0.25
)

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

// A scale whose problem size does not fit an int fails every app's Build
// with an error naming the app and scale; none may clamp it to its floor
// size and simulate. Only overflowing scales are tried: a large scale that
// fits would be allocated.
func TestHugeScaleIsBuildError(t *testing.T) {
	for _, app := range core.Apps() {
		for _, scale := range []float64{1e17, 1e308} {
			_, err := harness.Execute(harness.Spec{
				App: app, Version: core.OrigVersion(app), Platform: "svm", NumProcs: 2, Scale: scale,
			})
			if want := fmt.Sprintf("%s: scale %g", app, scale); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s at scale %g: error %v, want one naming %q", app, scale, err, want)
			}
		}
	}
}
