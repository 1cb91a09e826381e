// The paper's headline claims as one table of tolerance-banded predicates
// over simulated speedups, end times and runs: the shape scoreboard of
// EXPERIMENTS.md. Each row names its claim and its paper source and lists
// the scales it is asserted at, bench (benchScale, half the figure inputs)
// and figure (the figures' own inputs). TestClaims runs every row at each
// of its scales as subtest <row>@bench or <row>@figure over one shared
// runner per scale, so a cell simulates once however many rows read it; the
// figure rows are skipped under -short. Any cost-model or protocol change
// that bends a figure's SHAPE, not just its exact numbers, fails here with
// a message naming the claim.
//
// Bands are deliberately loose (the paper's claims are qualitative
// orderings, not point values) but tight enough to be falsifiable:
// TestClaimsSuiteDetectsPerturbation shows that zeroing the SVM protocol
// costs flips the headline predicate, on a paper app and an irregular one.
package repro

import (
	"fmt"
	"testing"

	_ "repro/internal/apps" // register every application
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/svm"
)

// benchScale is the bench scale's problem-size multiplier on top of each
// application's harness.BaseScale: half the figure inputs, so the bench rows
// stay cheap enough for -short.
const benchScale = 0.5

// claimScale is one problem size the table is asserted at, with the
// 16-processor runner every row shares at that size.
type claimScale struct {
	name string
	r    *harness.Runner
}

var (
	bench  = &claimScale{"bench", harness.NewRunner(16, benchScale)}
	figure = &claimScale{"figure", harness.NewRunner(16, 1)}
	both   = []*claimScale{bench, figure}
	// The irregular extension apps are in no figure; their campaign
	// (campaigns/irregular.json) runs at benchScale, and so do their rows.
	benchOnly = []*claimScale{bench}
)

// lookup is what a predicate reads: the memoized cells of one scale. A
// cell that fails to simulate fails the row, naming the cell.
type lookup struct {
	*testing.T
	s *claimScale
}

func (l lookup) run(app, version, plat string) *stats.Run {
	l.Helper()
	run, err := l.s.r.Run(app, version, plat)
	if err != nil {
		l.Fatalf("%s/%s on %s: %v", app, version, plat, err)
	}
	return run
}

func (l lookup) sp(app, version, plat string) float64 {
	l.Helper()
	v, err := l.s.r.Speedup(app, version, plat)
	if err != nil {
		l.Fatalf("%s/%s on %s: %v", app, version, plat, err)
	}
	return v
}

// versions lists app's versions, original first.
func (l lookup) versions(app string) []core.Version {
	l.Helper()
	a, err := core.Lookup(app)
	if err != nil {
		l.Fatal(err)
	}
	return a.Versions()
}

// farBehind is the headline predicate: an SVM speedup "far behind" a
// hardware-coherent speedup, with a 40% band (the paper's gaps are 2.5-25x,
// so 0.6 leaves generous room for cost-model drift without letting the
// claim silently invert).
func farBehind(svmSp, hwSp float64) bool { return svmSp < 0.6*hwSp }

// trailsHardware asserts that app's original is far behind on SVM both
// hardware-coherent speedups, each at least minHW.
func trailsHardware(l lookup, app string, minHW float64) {
	l.Helper()
	orig := core.OrigVersion(app)
	svmSp := l.sp(app, orig, "svm")
	for _, hw := range []string{"smp", "dsm"} {
		hwSp := l.sp(app, orig, hw)
		if !farBehind(svmSp, hwSp) {
			l.Errorf("%s/%s: svm speedup %.2f is not far behind %s %.2f (want < 0.6x)", app, orig, svmSp, hw, hwSp)
		}
		if hwSp < minHW {
			l.Errorf("%s/%s: %s speedup %.2f too low for hardware coherence (want >= %g)", app, orig, hw, hwSp, minHW)
		}
	}
}

// padNeverRescues asserts that app's P/A version pad stays far behind the
// SMP on SVM and gains at most maxGain over the original there.
func padNeverRescues(l lookup, app, pad string, maxGain float64) {
	l.Helper()
	padSVM, padSMP := l.sp(app, pad, "svm"), l.sp(app, pad, "smp")
	if !farBehind(padSVM, padSMP) {
		l.Errorf("%s/%s: P/A alone reaches %.2f on svm vs %.2f on smp — claim says it never rescues", app, pad, padSVM, padSMP)
	}
	if orig := l.sp(app, core.OrigVersion(app), "svm"); padSVM > maxGain*orig {
		l.Errorf("%s/%s: P/A alone lifts svm speedup to %.2f from %.2f (want <= %gx)", app, pad, padSVM, orig, maxGain)
	}
}

// irregular lists each irregular extension app's version ladder in
// taxonomy order (orig, P/A, DS, Alg) with the least gain its Alg version
// must show over orig on every preset and over DS on smp and dsm.
var irregular = []struct {
	app              string
	v                [4]string
	overOrig, overDS float64
}{
	{"kvstore", [4]string{"orig", "pad", "open", "shard"}, 1.5, 1.3}, // observed 2.0x (dsm) to 60x (svm); 1.8x (dsm), 3.0x (smp)
	{"bfs", [4]string{"orig", "pad", "part", "dir"}, 1.2, 1.15},      // observed 1.4x-1.9x outside svmsmp; 1.3x (smp), 1.4x (dsm)
	{"pipeline", [4]string{"orig", "pad", "split", "batch"}, 3, 2},   // observed 17x (smp) to ~1900x (svm); 4.0x (dsm), 6.1x (smp)
}

// claim is one row of the table.
type claim struct {
	name   string
	source string // the paper's figure or section; Irregular rows replay it on the extension apps
	scales []*claimScale
	check  func(l lookup)
}

var claims = []claim{
	{"OriginalsTrailHardware", "Fig. 2", both, func(l lookup) {
		for _, app := range core.PaperApps() {
			trailsHardware(l, app, 3)
		}
	}},
	{"OceanRaytraceBelowUniprocessor", "Fig. 2", both, func(l lookup) {
		for _, app := range []string{"ocean", "raytrace"} {
			if v := l.sp(app, "orig", "svm"); v >= 0.9 {
				l.Errorf("%s/orig on svm: speedup %.2f; claim wants below uniprocessor (< 0.9)", app, v)
			}
		}
	}},
	{"PaddingAloneNeverRescues", "§4, §6", both, func(l lookup) {
		// "Simple padding and alignment ... is not the answer"; for
		// several apps it even hurts, by enlarging the data set.
		for _, app := range core.PaperApps() {
			for _, v := range l.versions(app) {
				if v.Class == core.PA {
					padNeverRescues(l, app, v.Name, 1.5)
				}
			}
		}
	}},
	{"DataStructuresTransformLU", "§4.2", both, func(l lookup) {
		// The 4-D contiguous-block layout is what makes LU viable on SVM,
		// and the algorithmic step on top does not give it back.
		orig, ds := l.sp("lu", "orig", "svm"), l.sp("lu", "4d", "svm")
		if ds < 2.5*orig {
			l.Errorf("lu/4d on svm: %.2f is not a transformation of orig %.2f (want >= 2.5x)", ds, orig)
		}
		if alg := l.sp("lu", "4da", "svm"); alg < 0.95*ds {
			l.Errorf("lu/4da on svm: %.2f regressed below the 4d version %.2f", alg, ds)
		}
	}},
	{"AlgorithmicChangesDecisive", "§4.3", both, func(l lookup) {
		// Each app's final version clearly beats its original on SVM, and
		// the best Alg version beats it by an app-specific factor: huge
		// for Raytrace's lock elimination, moderate where the original
		// was already viable.
		for _, c := range []struct {
			app, final string
			minBest    float64
		}{
			{"lu", "4da", 0}, {"ocean", "rows", 2.5}, {"volrend", "balanced", 1.25},
			{"shearwarp", "opt", 1.3}, {"raytrace", "nolock", 5}, {"barnes", "spatial", 1.5},
		} {
			vs := l.versions(c.app)
			orig := l.sp(c.app, vs[0].Name, "svm")
			// Volrend's balanced-vs-original gap is a page-granularity
			// effect of the figure's image size: at bench scale balanced
			// (5.94) does not even reach orig (6.31).
			if f := l.sp(c.app, c.final, "svm"); f <= 1.2*orig && (c.app != "volrend" || l.s == figure) {
				l.Errorf("%s: final version %s reaches %.2f on svm, not well above orig %.2f (want > 1.2x)", c.app, c.final, f, orig)
			}
			best, bestName := 0.0, ""
			for _, v := range vs {
				if v.Class != core.Alg {
					continue
				}
				if s := l.sp(c.app, v.Name, "svm"); s > best {
					best, bestName = s, v.Name
				}
			}
			if best < c.minBest*orig {
				l.Errorf("%s: best Alg version %s reaches %.2f on svm, orig %.2f — claim wants >= %.2gx", c.app, bestName, best, orig, c.minBest)
			}
		}
	}},
	{"RadixStaysTerrible", "§4.4", both, func(l lookup) {
		for _, v := range l.versions("radix") {
			if s := l.sp("radix", v.Name, "svm"); s >= 0.9 {
				l.Errorf("radix/%s on svm: speedup %.2f; the claim is that Radix stays below uniprocessor", v.Name, s)
			}
		}
	}},
	{"BarnesSpatialBestTreeBuild", "§4.3", both, func(l lookup) {
		spatial := l.sp("barnes", "spatial", "svm")
		for _, v := range l.versions("barnes") {
			if other := l.sp("barnes", v.Name, "svm"); v.Name != "spatial" && spatial < 1.1*other {
				l.Errorf("barnes/spatial %.2f on svm does not clearly beat %s %.2f (want >= 1.1x)", spatial, v.Name, other)
			}
		}
	}},
	{"TwoLevelBeatsFlatSVM", "§7", both, func(l lookup) {
		// SMP nodes of four processors joined by SVM (svmsmp) pay off
		// over flat SVM. End times are compared, since speedups must not
		// be compared across platforms (§2.1.3).
		ratio := func(app, version string) float64 {
			r := float64(l.run(app, version, "svm").EndTime) / float64(l.run(app, version, "svmsmp").EndTime)
			l.Logf("%s/%s: svm/svmsmp time %.3f", app, version, r)
			if r < 1.05 {
				l.Errorf("%s/%s: svm/svmsmp time %.3f; claim wants the two-level hierarchy >= 1.05x faster", app, version, r)
			}
			return r
		}
		ocean, lu, radix := ratio("ocean", "rows"), ratio("lu", "4da"), ratio("radix", "orig")
		// Radix, the most false-sharing-bound app, gains the most at bench
		// scale; at figure scale its gain is only 1.295x ocean's.
		if l.s == bench && (radix < 1.2*ocean || radix < 1.2*lu) {
			l.Errorf("radix gains %.3fx from svmsmp, not clearly more than ocean's %.3fx and lu's %.3fx (want >= 1.2x each)", radix, ocean, lu)
		}
	}},
	{"Portability", "§5", both, func(l lookup) {
		// The SVM optimizations do not hurt much on the hardware
		// platforms. The caveat: Barnes-Spatial trades load balance for
		// communication, so it may hurt there, but must not collapse.
		for _, c := range []struct {
			app, final string
			min        float64
		}{
			{"lu", "4da", 0.8}, {"ocean", "rows", 0.8}, {"shearwarp", "opt", 0.8},
			{"raytrace", "nolock", 0.8}, {"barnes", "spatial", 0.5},
		} {
			for _, plat := range []string{"smp", "dsm"} {
				so, sf := l.sp(c.app, core.OrigVersion(c.app), plat), l.sp(c.app, c.final, plat)
				if sf < c.min*so {
					l.Errorf("%s on %s: %s %.2f falls below %.2gx orig %.2f — not portable", c.app, plat, c.final, sf, c.min, so)
				}
			}
		}
	}},
	{"Fig17StealingCrossover", "Fig. 17", both, func(l lookup) {
		// Turning stealing off helps (slightly) on SVM but hurts on the
		// DSM, where stealing is cheap and load balance wins.
		svmSteal, svmNo := l.sp("volrend", "balanced", "svm"), l.sp("volrend", "nosteal", "svm")
		if svmNo < 0.95*svmSteal {
			l.Errorf("svm: nosteal %.2f well below stealing %.2f; paper finds nosteal at least as good", svmNo, svmSteal)
		}
		if dsmSteal, dsmNo := l.sp("volrend", "balanced", "dsm"), l.sp("volrend", "nosteal", "dsm"); dsmSteal < dsmNo {
			l.Errorf("dsm: stealing %.2f below nosteal %.2f; stealing is cheap and effective on hardware", dsmSteal, dsmNo)
		}
	}},
	{"RaytraceLockWaitDominates", "Fig. 11", both, func(l lookup) {
		run := l.run("raytrace", "orig", "svm")
		lock := run.TotalCycles(stats.LockWait)
		for c := stats.Category(0); c < stats.NumCategories; c++ {
			if c != stats.LockWait && run.TotalCycles(c) >= lock {
				l.Errorf("raytrace/orig on svm: %v %d not below LockWait %d; paper finds lock wait dominates", c, run.TotalCycles(c), lock)
			}
		}
	}},
	{"RadixCommunicationBound", "Fig. 15", both, func(l lookup) {
		run := l.run("radix", "orig", "svm")
		comm := run.TotalCycles(stats.DataWait) + run.TotalCycles(stats.BarrierWait) + run.TotalCycles(stats.Handler)
		if comp := run.TotalCycles(stats.Compute); comm < 3*comp {
			l.Errorf("radix/orig on svm: communication %d not well above compute %d (want >= 3x)", comm, comp)
		}
	}},
	{"BarnesTreeBuildBalloons", "§4.2.4", both, func(l lookup) {
		// Tree building, ~2% of sequential time, balloons under SVM with
		// the shared-tree algorithm (43% in the paper); the spatial
		// redesign shrinks it again.
		share := func(version string) float64 {
			run := l.run("barnes", version, "svm")
			return float64(run.PhaseTimes["treebuild"]) / float64(run.EndTime*uint64(run.NumProcs))
		}
		shared, spatial := share("splash2"), share("spatial")
		if shared < 0.10 {
			l.Errorf("barnes/splash2 on svm: tree-build share %.2f too small (want >= 0.10)", shared)
		}
		if spatial >= shared {
			l.Errorf("barnes/spatial on svm: tree-build share %.2f not below splash2's %.2f", spatial, shared)
		}
	}},
	{"FreeCSFaultsDiagnostic", "§4.2.1, §4.2.3", both, func(l lookup) {
		// Free page faults inside critical sections recover most of the
		// lock-bound Raytrace's lost time.
		free, err := harness.Execute(harness.Spec{App: "raytrace", Version: "orig", Platform: "svm",
			NumProcs: 16, Scale: harness.BaseScale["raytrace"] * l.s.r.Scale, FreeCSFaults: true})
		if err != nil {
			l.Fatal(err)
		}
		if normal := l.run("raytrace", "orig", "svm").EndTime; float64(free.EndTime) > 0.5*float64(normal) {
			l.Errorf("raytrace/orig on svm: free-CS-faults end %d not far below normal %d (want <= 0.5x)", free.EndTime, normal)
		}
	}},
	{"IrregularOriginalsTrailHardware", "Fig. 2, irregular apps", benchOnly, func(l lookup) {
		for _, a := range irregular {
			trailsHardware(l, a.app, 0)
		}
	}},
	{"IrregularPaddingNeverRescues", "§4, irregular apps", benchOnly, func(l lookup) {
		for _, a := range irregular {
			padNeverRescues(l, a.app, a.v[1], 2)
		}
	}},
	{"IrregularBestBeatsOriginalEverywhere", "§4-5, irregular apps", benchOnly, func(l lookup) {
		// Except bfs on svmsmp, where the level barriers pay the
		// two-level latency at 16 processors; the exception is pinned as
		// deliberately as the wins, so it cannot silently appear or vanish.
		for _, a := range irregular {
			for _, pl := range platform.AllPresets {
				orig, best := l.sp(a.app, a.v[0], pl), l.sp(a.app, a.v[3], pl)
				beats, exception := best >= a.overOrig*orig, a.app == "bfs" && pl == "svmsmp"
				if exception && beats {
					l.Errorf("bfs/dir on svmsmp reaches %.2f vs orig %.2f: the hierarchy exception has vanished — update the claim", best, orig)
				}
				if !exception && !beats {
					l.Errorf("%s/%s on %s: %.2f does not beat orig %.2f by %.2gx", a.app, a.v[3], pl, best, orig, a.overOrig)
				}
			}
		}
	}},
	{"IrregularAlgBeatsDS", "§4, irregular apps", benchOnly, func(l lookup) {
		// Restructuring keeps paying past layout fixes even where
		// coherence is fine-grained.
		for _, a := range irregular {
			for _, pl := range []string{"smp", "dsm"} {
				if ds, alg := l.sp(a.app, a.v[2], pl), l.sp(a.app, a.v[3], pl); alg < a.overDS*ds {
					l.Errorf("%s on %s: Alg version %s %.2f does not beat DS version %s %.2f by %.2gx", a.app, pl, a.v[3], alg, a.v[2], ds, a.overDS)
				}
			}
		}
	}},
	{"IrregularPortabilityAchieved", "§5, irregular apps", benchOnly, func(l lookup) {
		// kvstore and pipeline, restructured, run faster on SVM than
		// their originals ever ran on the SMP; bfs stays below
		// uniprocessor speed on SVM in every version, the radix-shaped
		// counterexample.
		for _, a := range irregular {
			if a.app != "bfs" {
				if bestSVM, origSMP := l.sp(a.app, a.v[3], "svm"), l.sp(a.app, a.v[0], "smp"); bestSVM < 1.5*origSMP {
					l.Errorf("%s/%s on svm: %.2f does not exceed orig on smp %.2f by 1.5x — portability claim broken", a.app, a.v[3], bestSVM, origSMP)
				}
				continue
			}
			for _, v := range a.v {
				if s := l.sp("bfs", v, "svm"); s >= 0.9 {
					l.Errorf("bfs/%s on svm: speedup %.2f; the claim is that bfs stays below uniprocessor on SVM", v, s)
				}
			}
		}
	}},
}

// TestClaims asserts every row of the table at each of its scales.
func TestClaims(t *testing.T) {
	for _, c := range claims {
		for _, s := range c.scales {
			t.Run(c.name+"@"+s.name, func(t *testing.T) {
				if s == figure && testing.Short() {
					t.Skip("figure-scale claims skipped in -short mode")
				}
				defer func() {
					if t.Failed() {
						t.Logf("claim source: %s", c.source)
					}
				}()
				c.check(lookup{t, s})
			})
		}
	}
}

// perturbedSVMRun executes app/version on an SVM platform with a DOCTORED
// cost model at benchScale, bypassing the harness (whose memo must never
// see non-default parameters).
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

// TestClaimsSuiteDetectsPerturbation proves the table is falsifiable: with
// every SVM software-protocol cost zeroed (faults, twins, diffs, messages,
// home, lock and barrier service), an original that honestly trails the
// SMP no longer does, so the trailsHardware predicate is sensitive to the
// cost model. LU is a paper app; pipeline's original collapses on SVM
// because every queue operation pays the software lock-manager round trip.
// If a case finds the claim still holding under the perturbation, the
// table has gone vacuous.
func TestClaimsSuiteDetectsPerturbation(t *testing.T) {
	d := protocol.DefaultHLRCParams()
	free := protocol.HLRCParams{PageSize: d.PageSize, L2HitCost: d.L2HitCost, MemCost: d.MemCost}
	for _, app := range []string{"lu", "pipeline"} {
		t.Run(app+"/orig", func(t *testing.T) {
			l := lookup{t, bench}
			perturbed := float64(perturbedSVMRun(t, app, "orig", 1, free).EndTime) /
				float64(perturbedSVMRun(t, app, "orig", 16, free).EndTime)
			honest, smp := l.sp(app, "orig", "svm"), l.sp(app, "orig", "smp")
			if !farBehind(honest, smp) {
				t.Fatalf("precondition: honest %s/orig svm %.2f should trail smp %.2f", app, honest, smp)
			}
			if farBehind(perturbed, smp) {
				t.Errorf("free-protocol svm speedup %.2f still 'trails' smp %.2f: the claim predicate is not sensitive to the cost model", perturbed, smp)
			}
		})
	}
}
