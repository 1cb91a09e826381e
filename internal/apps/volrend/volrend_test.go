package volrend

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/stats"
)

// execute runs one volrend cell through the harness with invariant checking on.
func execute(t *testing.T, version, plat string, np int, scale float64) *stats.Run {
	t.Helper()
	run, err := harness.Execute(harness.Spec{App: "volrend", Version: version, Platform: plat, NumProcs: np, Scale: scale, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestVolrendCorrectAllVersions(t *testing.T) {
	for _, v := range []string{"orig", "pad", "ds4d", "balanced", "nosteal"} {
		t.Run(v, func(t *testing.T) { execute(t, v, "svm", 4, 0.5) })
	}
}

func TestVolrendAcrossPlatforms(t *testing.T) {
	for _, pl := range platform.Names {
		t.Run(pl, func(t *testing.T) { execute(t, "balanced", pl, 4, 0.5) })
	}
}

func TestVolrendUniprocessor(t *testing.T) {
	execute(t, "orig", "svm", 1, 0.5)
}

func TestVolrendBlockedPartitionSteals(t *testing.T) {
	// The blocked partition is imbalanced (corner blocks are empty space)
	// so the original version must steal; the balanced round-robin
	// assignment must steal much less.
	orig := execute(t, "orig", "svm", 16, 1)
	bal := execute(t, "balanced", "svm", 16, 1)
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
	orig := execute(t, "orig", "svm", 16, 2)
	bal := execute(t, "balanced", "svm", 16, 2)
	nos := execute(t, "nosteal", "svm", 16, 2)
	if bal.EndTime >= orig.EndTime {
		t.Errorf("balanced (%d) should beat orig (%d) on SVM", bal.EndTime, orig.EndTime)
	}
	// Lock wait must collapse without stealing.
	if lw, lo := nos.TotalCycles(stats.LockWait), bal.TotalCycles(stats.LockWait); lw >= lo {
		t.Errorf("nosteal lock wait %d >= balanced lock wait %d", lw, lo)
	}
}

func TestVolrendNoStealRunsEverything(t *testing.T) {
	run := execute(t, "nosteal", "svm", 8, 0.5)
	c := run.AggregateCounters()
	if c.TasksStolen != 0 {
		t.Errorf("nosteal stole %d tasks", c.TasksStolen)
	}
	nt := 64 / 4                                         // image 64 at scale 0.5, tile 4
	if want := uint64(nt * nt * 4); c.TasksRun != want { // 4 frames
		t.Errorf("tasks run = %d, want %d", c.TasksRun, want)
	}
}
