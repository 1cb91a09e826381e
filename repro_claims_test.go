// Golden tests encoding the paper's headline claims as tolerance-banded
// predicates over the simulated speedups at benchScale (the shape scoreboard
// of EXPERIMENTS.md). They run in -short mode and are part of tier-1: any
// cost-model or protocol change that bends a figure's SHAPE — not just its
// exact numbers — fails here with a message naming the claim.
//
// Bands are deliberately loose (the paper's claims are qualitative orderings,
// not point values) but tight enough to be falsifiable:
// TestClaimsSuiteDetectsPerturbation demonstrates that zeroing the SVM
// protocol costs flips the headline claim.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/svm"
)

// benchScale is the claims suite's problem-size multiplier on top of each
// application's harness.BaseScale: half the figure inputs, so the suite
// stays cheap enough for tier-1.
const benchScale = 0.5

var (
	claimsOnce   sync.Once
	claimsRunner *harness.Runner
)

// claimsR returns the shared memoized runner for claim cells: 16 processors
// at benchScale. Sharing one runner means each cell and each uniprocessor
// baseline is simulated once across the whole suite.
func claimsR() *harness.Runner {
	claimsOnce.Do(func() { claimsRunner = harness.NewRunner(16, benchScale) })
	return claimsRunner
}

// sp fetches (memoized) the speedup of app/version on plat at the claims
// scale, failing the test on simulation errors.
func sp(t *testing.T, app, version, plat string) float64 {
	t.Helper()
	v, err := claimsR().Speedup(app, version, plat)
	if err != nil {
		t.Fatalf("%s/%s on %s: %v", app, version, plat, err)
	}
	return v
}

// farBehind is the headline predicate: an SVM speedup "far behind" a
// hardware-coherent speedup, with a 40% band (the paper's gaps are 2.5-25x,
// so 0.6 leaves generous room for cost-model drift without letting the
// claim silently invert).
func farBehind(svmSp, hwSp float64) bool { return svmSp < 0.6*hwSp }

// TestClaimsOriginalsTrailHardware is Figure 2's headline: every original
// SPLASH-2-style version is far slower on SVM than on both hardware-coherent
// platforms.
func TestClaimsOriginalsTrailHardware(t *testing.T) {
	for _, app := range PaperApps() {
		vs, err := Versions(app)
		if err != nil {
			t.Fatal(err)
		}
		orig := vs[0].Name
		svmSp := sp(t, app, orig, "svm")
		for _, hw := range []string{"smp", "dsm"} {
			if hwSp := sp(t, app, orig, hw); !farBehind(svmSp, hwSp) {
				t.Errorf("%s/%s: svm speedup %.2f is not far behind %s %.2f (want < 0.6x)",
					app, orig, svmSp, hw, hwSp)
			}
		}
	}
}

// TestClaimsOceanRaytraceBelowUniprocessor: the paper's starkest Figure 2
// observation — Ocean's and Raytrace's originals run SLOWER than the
// uniprocessor on SVM at 16 processors.
func TestClaimsOceanRaytraceBelowUniprocessor(t *testing.T) {
	for _, app := range []string{"ocean", "raytrace"} {
		if v := sp(t, app, "orig", "svm"); v >= 0.9 {
			t.Errorf("%s/orig on svm: speedup %.2f; claim wants below uniprocessor (< 0.9)", app, v)
		}
	}
}

// TestClaimsPaddingAloneNeverRescues: §4's first rung — padding/alignment
// alone never brings an application close to hardware-coherent performance
// on SVM (for several apps it even hurts, by enlarging the data set).
func TestClaimsPaddingAloneNeverRescues(t *testing.T) {
	for _, app := range PaperApps() {
		vs, err := Versions(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			if v.Class != core.PA {
				continue
			}
			padSVM := sp(t, app, v.Name, "svm")
			padSMP := sp(t, app, v.Name, "smp")
			if !farBehind(padSVM, padSMP) {
				t.Errorf("%s/%s: P/A alone reaches %.2f on svm vs %.2f on smp — claim says it never rescues",
					app, v.Name, padSVM, padSMP)
			}
			if orig := sp(t, app, vs[0].Name, "svm"); padSVM > 2*orig {
				t.Errorf("%s/%s: P/A alone tripled svm speedup (%.2f from %.2f) — more than the paper allows it",
					app, v.Name, padSVM, orig)
			}
		}
	}
}

// TestClaimsDataStructuresTransformLU: §4.2's LU story — the 4-D
// contiguous-block reorganization is what makes LU viable on SVM (orig 1.3x
// to 4.5x here), and the algorithmic barrier reduction on top does not give
// it back away.
func TestClaimsDataStructuresTransformLU(t *testing.T) {
	orig := sp(t, "lu", "orig", "svm")
	ds := sp(t, "lu", "4d", "svm")
	if ds < 2.5*orig {
		t.Errorf("lu/4d on svm: %.2f is not a transformation of orig %.2f (want >= 2.5x)", ds, orig)
	}
	if alg := sp(t, "lu", "4da", "svm"); alg < 0.95*ds {
		t.Errorf("lu/4da on svm: %.2f regressed below the 4d version %.2f", alg, ds)
	}
}

// TestClaimsAlgorithmicChangesDecisive: §4.3 — for Ocean, Volrend,
// Shear-Warp, Raytrace and Barnes, algorithmic restructuring is what finally
// moves SVM performance; the best Alg version beats the original by an
// app-specific factor (huge for Raytrace's lock elimination, moderate where
// the original was already viable).
func TestClaimsAlgorithmicChangesDecisive(t *testing.T) {
	minGain := map[string]float64{
		"ocean":     2.5,  // rows vs below-uniprocessor orig (~4.7x here)
		"volrend":   1.25, // nosteal vs orig (~1.5x; balanced alone does NOT win)
		"shearwarp": 1.3,  // opt vs orig (~1.6x)
		"raytrace":  5,    // nolock vs a below-uniprocessor orig (~20x)
		"barnes":    1.5,  // spatial vs splash (~2.4x)
	}
	for app, want := range minGain {
		vs, err := Versions(app)
		if err != nil {
			t.Fatal(err)
		}
		orig := sp(t, app, vs[0].Name, "svm")
		best := 0.0
		bestName := ""
		for _, v := range vs {
			if v.Class != core.Alg {
				continue
			}
			if s := sp(t, app, v.Name, "svm"); s > best {
				best, bestName = s, v.Name
			}
		}
		if bestName == "" {
			t.Fatalf("%s: no Alg-class version registered", app)
		}
		if best < want*orig {
			t.Errorf("%s: best Alg version %s reaches %.2f on svm, orig %.2f — claim wants >= %.2gx",
				app, bestName, best, orig, want)
		}
	}
}

// TestClaimsRadixStaysTerrible: §4.4 — no restructuring in the paper's
// arsenal saves Radix on SVM; every version stays below uniprocessor speed
// (only much larger keys-per-processor counts would help).
func TestClaimsRadixStaysTerrible(t *testing.T) {
	vs, err := Versions("radix")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if s := sp(t, "radix", v.Name, "svm"); s >= 0.9 {
			t.Errorf("radix/%s on svm: speedup %.2f; the claim is that Radix stays below uniprocessor", v.Name, s)
		}
	}
}

// TestClaimsBarnesSpatialBestTreeBuild: §4.3's Barnes progression — the
// spatial (merging-based) tree build beats every other Barnes version on
// SVM, including the intermediate update/partree attempts.
func TestClaimsBarnesSpatialBestTreeBuild(t *testing.T) {
	vs, err := Versions("barnes")
	if err != nil {
		t.Fatal(err)
	}
	spatial := sp(t, "barnes", "spatial", "svm")
	for _, v := range vs {
		if v.Name == "spatial" {
			continue
		}
		if other := sp(t, "barnes", v.Name, "svm"); spatial < 1.1*other {
			t.Errorf("barnes/spatial %.2f on svm does not clearly beat %s %.2f (want >= 1.1x)",
				spatial, v.Name, other)
		}
	}
}

// TestClaimsTwoLevelBeatsFlatSVM: the paper's §7 future-work hierarchy —
// SMP nodes of four processors joined by SVM (the svmsmp preset) — pays off
// over flat SVM. Absolute completion times are compared, since speedups must
// not be compared across platforms (§2.1.3). Each restructured app ends
// clearly sooner on svmsmp, and Radix, the most false-sharing-bound app,
// gains the most: sharing inside a node is hardware-coherent.
func TestClaimsTwoLevelBeatsFlatSVM(t *testing.T) {
	ratio := map[string]float64{}
	for _, c := range []struct{ app, version string }{{"ocean", "rows"}, {"lu", "4da"}, {"radix", "orig"}} {
		var end [2]uint64
		for i, plat := range []string{"svm", "svmsmp"} {
			run, err := claimsR().Run(c.app, c.version, plat)
			if err != nil {
				t.Fatalf("%s/%s on %s: %v", c.app, c.version, plat, err)
			}
			end[i] = run.EndTime
		}
		r := float64(end[0]) / float64(end[1])
		t.Logf("%s/%s: svm/svmsmp time %.3f", c.app, c.version, r)
		if r < 1.05 {
			t.Errorf("%s/%s: svm/svmsmp time %.3f; claim wants the two-level hierarchy >= 1.05x faster", c.app, c.version, r)
		}
		ratio[c.app] = r
	}
	for _, app := range []string{"ocean", "lu"} {
		if ratio["radix"] < 1.2*ratio[app] {
			t.Errorf("radix gains %.3fx from svmsmp, not clearly more than %s's %.3fx (want >= 1.2x as much)",
				ratio["radix"], app, ratio[app])
		}
	}
}

// perturbedSVMRun executes app/version on an SVM platform with a DOCTORED
// cost model, bypassing the harness (whose memo must never see non-default
// parameters).
func perturbedSVMRun(t *testing.T, app, version string, np int, p protocol.HLRCParams) *stats.Run {
	t.Helper()
	a, err := core.Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	as := mem.NewAddressSpace(platform.PageSize, np)
	inst, err := a.Build(version, harness.BaseScale[app]*benchScale, as, np)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.New(svm.New(as, p, np), sim.Config{NumProcs: np, BarrierManager: sim.AutoBarrierManager})
	run, err := k.RunErr(fmt.Sprintf("perturbed %s/%s", app, version), inst.Body)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestClaimsSuiteDetectsPerturbation proves the claims above are falsifiable:
// with the SVM software-protocol costs deliberately zeroed (free faults,
// twins, diffs, messages), LU's original version no longer trails the SMP —
// the exact predicate TestClaimsOriginalsTrailHardware asserts. If this test
// ever finds the claim still holding under the perturbation, the suite has
// gone vacuous and is no longer guarding the cost model.
func TestClaimsSuiteDetectsPerturbation(t *testing.T) {
	free := protocol.DefaultHLRCParams()
	free.FaultOverhead = 0
	free.WriteTrap = 0
	free.TwinCost = 0
	free.DiffCreate = 0
	free.DiffApply = 0
	free.NoticeCost = 0
	free.InvalCost = 0
	free.MsgSend = 0
	free.MsgRecv = 0
	free.NetLatency = 0
	free.PageXfer = 0
	free.DiffXfer = 0
	free.HomeService = 0
	free.LockMgrService = 0
	free.BarrierPerProc = 0
	free.BarrierBcast = 0

	t1 := perturbedSVMRun(t, "lu", "orig", 1, free).EndTime
	tp := perturbedSVMRun(t, "lu", "orig", 16, free).EndTime
	perturbed := float64(t1) / float64(tp)

	honest := sp(t, "lu", "orig", "svm")
	smp := sp(t, "lu", "orig", "smp")
	if !farBehind(honest, smp) {
		t.Fatalf("precondition: honest lu/orig svm %.2f should trail smp %.2f", honest, smp)
	}
	if farBehind(perturbed, smp) {
		t.Errorf("free-protocol svm speedup %.2f still 'trails' smp %.2f: the claim predicate is not sensitive to the cost model", perturbed, smp)
	}
}
