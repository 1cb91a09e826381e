package radix

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

// execute runs one radix cell through the harness with invariant checking on.
func execute(t *testing.T, version, plat string, np int, scale float64) *stats.Run {
	t.Helper()
	run, err := harness.Execute(harness.Spec{App: "radix", Version: version, Platform: plat, NumProcs: np, Scale: scale, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestRadixSortsAllVersions(t *testing.T) {
	for _, v := range []string{"orig", "pad", "local"} {
		t.Run(v, func(t *testing.T) { execute(t, v, "svm", 4, 0.125) })
	}
}

func TestRadixAcrossPlatforms(t *testing.T) {
	for _, pl := range platform.Names {
		t.Run(pl, func(t *testing.T) { execute(t, "orig", pl, 4, 0.125) })
	}
}

func TestRadixUniprocessor(t *testing.T) {
	execute(t, "orig", "svm", 1, 0.125)
}

func TestRadixMatchesSortReference(t *testing.T) {
	as := mem.NewAddressSpace(platform.PageSize, 2)
	a, _ := core.Lookup("radix")
	instI, err := a.Build("orig", 0.125, as, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := instI.(*instance)
	want := append([]uint32(nil), in.keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	pl, _ := platform.Make("svm", as, 2)
	sim.New(pl, sim.Config{NumProcs: 2, Check: true}).Run("radix", in.Body)
	for i := range want {
		if in.keys[i] != want[i] {
			t.Fatalf("key %d = %d, want %d", i, in.keys[i], want[i])
		}
	}
}

func TestRadixLocalBufferVersion(t *testing.T) {
	// With stable rank-offset destinations, each processor's page working
	// set is identical in both versions — only the write ORDER differs —
	// so SVM protocol traffic is equal by construction and only local
	// cache behaviour improves (see EXPERIMENTS.md for the deviation
	// from the paper's 1.4 -> 2.24 step). The gathered version must not
	// be significantly worse, and its scattered-write cache stalls must
	// drop.
	orig := execute(t, "orig", "svm", 8, 1)
	local := execute(t, "local", "svm", 8, 1)
	if lo, oo := local.AggregateCounters().TwinsMade, orig.AggregateCounters().TwinsMade; lo != oo {
		t.Errorf("local twins %d != orig twins %d (page working sets should match)", lo, oo)
	}
	if float64(local.EndTime) > 1.6*float64(orig.EndTime) {
		t.Errorf("local time %d is much worse than orig time %d", local.EndTime, orig.EndTime)
	}
	// Both versions stay far from linear speedup — the paper's bottom
	// line for Radix on SVM ("the major outstanding problems are still
	// communication volume and contention").
	for _, r := range []*stats.Run{orig, local} {
		if w := r.TotalCycles(stats.DataWait) + r.TotalCycles(stats.BarrierWait); w < r.TotalCycles(stats.Compute) {
			t.Errorf("%s: communication+barrier (%d) should dominate compute (%d)", r.Name, w, r.TotalCycles(stats.Compute))
		}
	}
}

// Verify rejects an output that is sorted but not a permutation of the
// input: one key raised to its successor's value keeps the order and
// changes the checksum.
func TestVerifyRejectsNonPermutation(t *testing.T) {
	as := mem.NewAddressSpace(platform.PageSize, 2)
	a, _ := core.Lookup("radix")
	instI, err := a.Build("orig", 0.125, as, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := instI.(*instance)
	pl, _ := platform.Make("svm", as, 2)
	sim.New(pl, sim.Config{NumProcs: 2}).Run("radix", in.Body)
	if err := in.Verify(); err != nil {
		t.Fatalf("sorted output rejected: %v", err)
	}
	for i := 1; i < len(in.keys); i++ {
		if in.keys[i-1] < in.keys[i] {
			in.keys[i-1] = in.keys[i]
			break
		}
	}
	if err := in.Verify(); err == nil || !strings.Contains(err.Error(), "not a permutation") {
		t.Fatalf("Verify of a sorted non-permutation = %v, want a permutation error", err)
	}
}
