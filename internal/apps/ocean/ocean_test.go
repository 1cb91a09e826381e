package ocean

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

// execute runs one ocean cell through the harness with invariant checking on.
func execute(t *testing.T, version, plat string, np int, scale float64) *stats.Run {
	t.Helper()
	run, err := harness.Execute(harness.Spec{App: "ocean", Version: version, Platform: plat, NumProcs: np, Scale: scale, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestOceanCorrectAllVersionsSVM(t *testing.T) {
	for _, v := range []string{"orig", "pad", "4d", "rows"} {
		t.Run(v, func(t *testing.T) { execute(t, v, "svm", 4, 0.25) })
	}
}

func TestOceanCorrectAcrossPlatforms(t *testing.T) {
	for _, pl := range platform.Names {
		t.Run(pl, func(t *testing.T) { execute(t, "rows", pl, 4, 0.25) })
	}
}

func TestOceanUniprocessor(t *testing.T) {
	execute(t, "orig", "svm", 1, 0.25)
}

func TestOceanColumnBoundaryFragmentation(t *testing.T) {
	// Square partitions communicate word-at-a-time at column boundaries;
	// row-wise partitions fetch whole useful pages. The 4d square version
	// must therefore fetch more pages than the row-wise version.
	sq := execute(t, "4d", "svm", 16, 0.5)
	rw := execute(t, "rows", "svm", 16, 0.5)
	if rw.AggregateCounters().PageFetches >= sq.AggregateCounters().PageFetches {
		t.Errorf("rows fetches (%d) should be below square 4d fetches (%d)",
			rw.AggregateCounters().PageFetches, sq.AggregateCounters().PageFetches)
	}
	if rw.EndTime >= sq.EndTime {
		t.Errorf("rows (%d cycles) should beat square 4d (%d cycles) on SVM", rw.EndTime, sq.EndTime)
	}
}

func TestOceanColumnOwnersImbalanced(t *testing.T) {
	// Paper Figure 4: processors whose square partitions have two
	// column-oriented boundaries fetch more remote pages than those with
	// one. With a 4x4 grid, interior-column owners have two.
	run := execute(t, "4d", "svm", 16, 0.5)
	interior := run.Procs[5].Counters.PageFetches // grid position (1,1)
	corner := run.Procs[0].Counters.PageFetches   // grid position (0,0)
	if interior <= corner {
		t.Errorf("interior proc fetches %d <= corner proc %d; want imbalance", interior, corner)
	}
}

// Verify rejects a final grid with one perturbed point.
func TestVerifyRejectsPerturbedPoint(t *testing.T) {
	as := mem.NewAddressSpace(platform.PageSize, 4)
	a, _ := core.Lookup("ocean")
	instI, err := a.Build("rows", 0.25, as, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := instI.(*instance)
	pl, _ := platform.Make("svm", as, 4)
	sim.New(pl, sim.Config{NumProcs: 4}).Run("ocean", in.Body)
	if err := in.Verify(); err != nil {
		t.Fatalf("correct grid rejected: %v", err)
	}
	final := in.a
	if iterations%2 == 1 {
		final = in.b
	}
	k := in.n*in.n/2 + in.n/2
	final[k] += 1e-9
	if err := in.Verify(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("grid point %d ", k)) {
		t.Fatalf("Verify of a perturbed grid = %v, want an error naming point %d", err, k)
	}
}
