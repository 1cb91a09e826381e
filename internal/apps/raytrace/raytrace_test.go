package raytrace

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/stats"
)

// execute runs one raytrace cell through the harness with invariant checking on.
func execute(t *testing.T, version, plat string, np int, scale float64) *stats.Run {
	t.Helper()
	run, err := harness.Execute(harness.Spec{App: "raytrace", Version: version, Platform: plat, NumProcs: np, Scale: scale, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestRaytraceCorrectAllVersions(t *testing.T) {
	for _, v := range []string{"orig", "nolock", "splitq"} {
		t.Run(v, func(t *testing.T) { execute(t, v, "svm", 4, 0.5) })
	}
}

func TestRaytraceAcrossPlatforms(t *testing.T) {
	for _, pl := range platform.Names {
		t.Run(pl, func(t *testing.T) { execute(t, "splitq", pl, 4, 0.5) })
	}
}

func TestRaytraceUniprocessor(t *testing.T) {
	execute(t, "orig", "svm", 1, 0.5)
}

func TestRaytraceStatsLockKillsSVM(t *testing.T) {
	// The paper's headline: removing one statistics lock takes Raytrace
	// from 0.5 to 11.05 on SVM.
	orig := execute(t, "orig", "svm", 8, 0.5)
	nolock := execute(t, "nolock", "svm", 8, 0.5)
	if nolock.EndTime*2 >= orig.EndTime {
		t.Errorf("nolock (%d) must be far faster than orig (%d) on SVM", nolock.EndTime, orig.EndTime)
	}
	if lw := orig.Share(stats.LockWait); lw < 0.4 {
		t.Errorf("orig lock wait share = %.2f, want dominant (>= 0.4)", lw)
	}
}

func TestRaytraceStatsLockHarmlessOnSMP(t *testing.T) {
	// On hardware cache coherence the same lock is "relatively
	// insignificant" (paper §4.2.3).
	orig := execute(t, "orig", "smp", 8, 0.5)
	nolock := execute(t, "nolock", "smp", 8, 0.5)
	if float64(orig.EndTime) > 1.5*float64(nolock.EndTime) {
		t.Errorf("SMP orig/nolock = %.2f, statistics lock should be cheap on hardware",
			float64(orig.EndTime)/float64(nolock.EndTime))
	}
}

func TestRaytraceProcZeroWarmScene(t *testing.T) {
	// Processor 0 initialized the scene, so it fetches fewer pages than
	// the others (paper Figure 12 analysis).
	run := execute(t, "nolock", "svm", 8, 0.5)
	p0 := run.Procs[0].Counters.PageFetches
	var others uint64
	for i := 1; i < 8; i++ {
		others += run.Procs[i].Counters.PageFetches
	}
	others /= 7
	if p0 >= others {
		t.Errorf("proc 0 fetches %d >= average others %d; scene warm-start missing", p0, others)
	}
}
