package volrend

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

func runVolrend(t *testing.T, version, plat string, np int, scale float64) *stats.Run {
	t.Helper()
	as := mem.NewAddressSpace(platform.PageSize, np)
	a, err := core.Lookup("volrend")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := a.Build(version, scale, as, np)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := platform.Make(plat, as, np)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.New(pl, sim.Config{NumProcs: np, BarrierManager: sim.AutoBarrierManager})
	run := k.Run("volrend/"+version+"@"+plat, inst.Body)
	if err := inst.Verify(); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	return run
}

func TestVolrendCorrectAllVersions(t *testing.T) {
	for _, v := range []string{"orig", "pad", "ds4d", "balanced", "nosteal"} {
		t.Run(v, func(t *testing.T) { runVolrend(t, v, "svm", 4, 0.5) })
	}
}

func TestVolrendAcrossPlatforms(t *testing.T) {
	for _, pl := range platform.Names {
		t.Run(pl, func(t *testing.T) { runVolrend(t, "balanced", pl, 4, 0.5) })
	}
}

func TestVolrendUniprocessor(t *testing.T) {
	runVolrend(t, "orig", "svm", 1, 0.5)
}

func TestVolrendBlockedPartitionSteals(t *testing.T) {
	// The blocked partition is imbalanced (corner blocks are empty space)
	// so the original version must steal; the balanced round-robin
	// assignment must steal much less.
	orig := runVolrend(t, "orig", "svm", 16, 1)
	bal := runVolrend(t, "balanced", "svm", 16, 1)
	so, sb := orig.AggregateCounters().TasksStolen, bal.AggregateCounters().TasksStolen
	if so == 0 {
		t.Error("blocked partition stole no tasks; expected imbalance-driven stealing")
	}
	if sb*2 >= so {
		t.Errorf("balanced stealing (%d) not well below blocked stealing (%d)", sb, so)
	}
}

func TestVolrendBalancedBeatsOrigOnSVM(t *testing.T) {
	// Scale 2 is the paper's 256x256 image. At half that size the image is
	// only 16 pages, every page is falsely shared between the two
	// interleaved tile-rows it holds, and the balanced partition's diff
	// traffic can swamp its load-balance win — a degenerate regime the
	// paper never ran.
	orig := runVolrend(t, "orig", "svm", 16, 2)
	bal := runVolrend(t, "balanced", "svm", 16, 2)
	nos := runVolrend(t, "nosteal", "svm", 16, 2)
	if bal.EndTime >= orig.EndTime {
		t.Errorf("balanced (%d) should beat orig (%d) on SVM", bal.EndTime, orig.EndTime)
	}
	// Lock wait must collapse without stealing.
	if lw, lo := nos.TotalCycles(stats.LockWait), bal.TotalCycles(stats.LockWait); lw >= lo {
		t.Errorf("nosteal lock wait %d >= balanced lock wait %d", lw, lo)
	}
}

func TestVolrendNoStealRunsEverything(t *testing.T) {
	run := runVolrend(t, "nosteal", "svm", 8, 0.5)
	c := run.AggregateCounters()
	if c.TasksStolen != 0 {
		t.Errorf("nosteal stole %d tasks", c.TasksStolen)
	}
	nt := 64 / 4                                         // image 64 at scale 0.5, tile 4
	if want := uint64(nt * nt * 4); c.TasksRun != want { // 4 frames
		t.Errorf("tasks run = %d, want %d", c.TasksRun, want)
	}
}
