package lu

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

// execute runs one lu cell through the harness with invariant checking on.
func execute(t *testing.T, version, plat string, np int, scale float64) *stats.Run {
	t.Helper()
	run, err := harness.Execute(harness.Spec{App: "lu", Version: version, Platform: plat, NumProcs: np, Scale: scale, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestLUCorrectAllVersionsSVM(t *testing.T) {
	for _, v := range []string{"orig", "pad", "4d", "4da"} {
		t.Run(v, func(t *testing.T) { execute(t, v, "svm", 4, 0.25) })
	}
}

func TestLUCorrectAcrossPlatforms(t *testing.T) {
	for _, pl := range platform.Names {
		t.Run(pl, func(t *testing.T) { execute(t, "4da", pl, 4, 0.25) })
	}
}

func TestLUUniprocessor(t *testing.T) {
	execute(t, "orig", "svm", 1, 0.25)
}

func TestLU4dReducesFaultsVsOrig(t *testing.T) {
	orig := execute(t, "orig", "svm", 8, 0.5)
	opt := execute(t, "4da", "svm", 8, 0.5)
	of := orig.AggregateCounters().PageFetches
	nf := opt.AggregateCounters().PageFetches
	if nf >= of {
		t.Errorf("4da fetches %d >= orig fetches %d; restructuring must cut communication", nf, of)
	}
	if opt.EndTime >= orig.EndTime {
		t.Errorf("4da time %d >= orig time %d on SVM", opt.EndTime, orig.EndTime)
	}
}

func TestLUVersionsListed(t *testing.T) {
	a, _ := core.Lookup("lu")
	vs := a.Versions()
	if len(vs) != 4 || vs[0].Class != core.Orig {
		t.Fatalf("unexpected versions: %+v", vs)
	}
}

func TestLUUnknownVersion(t *testing.T) {
	as := mem.NewAddressSpace(platform.PageSize, 2)
	a, _ := core.Lookup("lu")
	if _, err := a.Build("nope", 1, as, 2); err == nil {
		t.Error("expected error for unknown version")
	}
}

// Verify rejects a factorization with one perturbed entry of the factors.
func TestVerifyRejectsPerturbedFactor(t *testing.T) {
	as := mem.NewAddressSpace(platform.PageSize, 4)
	a, _ := core.Lookup("lu")
	instI, err := a.Build("4da", 0.25, as, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := instI.(*instance)
	pl, _ := platform.Make("svm", as, 4)
	sim.New(pl, sim.Config{NumProcs: 4}).Run("lu", in.Body)
	if err := in.Verify(); err != nil {
		t.Fatalf("correct factorization rejected: %v", err)
	}
	in.data[in.n*in.n/2+3] += 1e-3
	if err := in.Verify(); err == nil || !strings.Contains(err.Error(), "reconstruction error") {
		t.Fatalf("Verify of a perturbed factor = %v, want a reconstruction error", err)
	}
}
