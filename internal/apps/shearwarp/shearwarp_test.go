package shearwarp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/stats"
)

// execute runs one shearwarp cell through the harness with invariant checking on.
func execute(t *testing.T, version, plat string, np int, scale float64) *stats.Run {
	t.Helper()
	run, err := harness.Execute(harness.Spec{App: "shearwarp", Version: version, Platform: plat, NumProcs: np, Scale: scale, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestShearWarpCorrectAllVersions(t *testing.T) {
	for _, v := range []string{"orig", "pad", "opt"} {
		t.Run(v, func(t *testing.T) { execute(t, v, "svm", 4, 0.5) })
	}
}

func TestShearWarpAcrossPlatforms(t *testing.T) {
	for _, pl := range []string{"svm", "smp", "dsm", "svmsmp"} {
		t.Run(pl, func(t *testing.T) { execute(t, "opt", pl, 4, 0.5) })
	}
}

func TestShearWarpUniprocessor(t *testing.T) {
	execute(t, "orig", "svm", 1, 0.5)
}

func TestShearWarpOptEliminatesInterPhaseBarrier(t *testing.T) {
	orig := execute(t, "orig", "svm", 8, 0.5)
	opt := execute(t, "opt", "svm", 8, 0.5)
	co := orig.AggregateCounters().Barriers
	cp := opt.AggregateCounters().Barriers
	if cp >= co {
		t.Errorf("opt barrier count %d >= orig %d; the inter-phase barrier should be gone", cp, co)
	}
}

func TestShearWarpOptCutsRedistribution(t *testing.T) {
	// In the optimized version a processor warps from intermediate rows
	// it composited itself, so inter-processor page traffic must drop.
	orig := execute(t, "orig", "svm", 16, 1)
	opt := execute(t, "opt", "svm", 16, 1)
	fo := orig.AggregateCounters().PageFetches
	fp := opt.AggregateCounters().PageFetches
	if fp >= fo {
		t.Errorf("opt fetches %d >= orig fetches %d", fp, fo)
	}
	if opt.EndTime >= orig.EndTime {
		t.Errorf("opt time %d >= orig time %d on SVM", opt.EndTime, orig.EndTime)
	}
}

func TestShearWarpProfiledPartitionBalances(t *testing.T) {
	// The profiled contiguous blocks equalize compositing cost even
	// though the head's scanline costs vary strongly: compute times must
	// be within a reasonable band across processors.
	run := execute(t, "opt", "svm", 8, 1)
	var min, max uint64 = ^uint64(0), 0
	for i := range run.Procs {
		c := run.Procs[i].Cycles[stats.Compute]
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if float64(max) > 1.6*float64(min) {
		t.Errorf("profiled partition imbalanced: compute %d..%d", min, max)
	}
}

func TestShearWarpRLECostsVary(t *testing.T) {
	// The per-scanline RLE cost profile must be non-uniform (center
	// scanlines cross the head), or the load-balancing story is vacuous.
	as := mem.NewAddressSpace(platform.PageSize, 4)
	a, _ := core.Lookup("shearwarp")
	instI, err := a.Build("opt", 0.5, as, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := instI.(*instance)
	mid := in.cost[in.n/2]
	edge := in.cost[1]
	if mid <= edge*2 {
		t.Errorf("scanline costs too uniform: center %d vs edge %d", mid, edge)
	}
}
