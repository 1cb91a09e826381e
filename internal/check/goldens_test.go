package check

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	_ "repro/internal/apps"
	"repro/internal/core"
	"repro/internal/harness"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/engine_goldens.json from the current engine")

// goldenCell is the recorded outcome of one experiment cell: the simulated
// end time pins the platform cost model, the result fingerprint pins the
// computation. Together they freeze the observable behavior of every
// platform composition against the pre-refactor clones (the file was
// generated by the hand-cloned platform packages immediately before they
// were rebuilt on internal/protocol, and must never need regeneration for
// a pure refactor).
type goldenCell struct {
	End uint64 `json:"end"`
	FP  string `json:"fp"`
}

const goldensPath = "testdata/engine_goldens.json"

// goldenSpecs enumerates the differential matrix: every registered figure
// cell (svm, smp, dsm), plus the two-level svmsmp platform — absent from
// the paper figures but equally engine-backed — for each application, at a
// cluster-spanning and a single-cluster processor count.
func goldenSpecs(t *testing.T) []harness.Spec {
	t.Helper()
	var specs []harness.Spec
	for _, c := range FigureCells() {
		specs = append(specs, harness.Spec{
			App: c.App, Version: c.Version, Platform: c.Platform,
			NumProcs: sweepProcs, Scale: sweepScale,
		})
	}
	for _, app := range core.Apps() {
		ver := core.OrigVersion(app)
		for _, np := range []int{3, sweepProcs} {
			specs = append(specs, harness.Spec{
				App: app, Version: ver, Platform: "svmsmp",
				NumProcs: np, Scale: sweepScale,
			})
		}
	}
	return specs
}

// TestEngineMatchesPreRefactorGoldens is the protocol-engine differential
// gate: for every cell of the golden matrix, the engine-backed platforms
// must reproduce the exact end time and result fingerprint recorded by the
// pre-refactor hand-cloned platform models. Any drift — a reordered
// invalidation sweep, a mischarged cycle, a changed fill state — fails
// here by cell name before it can bend a figure.
func TestEngineMatchesPreRefactorGoldens(t *testing.T) {
	if os.Getenv("REPRO_CHECK") != "" {
		// The golden keys pin check=false cells; REPRO_CHECK folds
		// Check=true into every memo key, so none of them would match.
		// The differential gate runs this test in its own CI step
		// without the env toggle.
		t.Skip("REPRO_CHECK forces check=true memo keys; goldens pin check=false")
	}
	specs := goldenSpecs(t)
	got := make(map[string]goldenCell, len(specs))
	var mu sync.Mutex
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, spec := range specs {
		key := spec.MemoKey()
		mu.Lock()
		_, dup := got[key]
		if !dup {
			got[key] = goldenCell{} // claim
		}
		mu.Unlock()
		if dup {
			continue
		}
		wg.Add(1)
		go func(spec harness.Spec, key string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			run, fp, err := harness.ExecuteFingerprint(spec)
			if err != nil {
				t.Errorf("%s: %v", key, err)
				return
			}
			cell := goldenCell{End: run.EndTime, FP: fmt.Sprintf("%016x", fp)}
			mu.Lock()
			got[key] = cell
			mu.Unlock()
		}(spec, key)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if *updateGoldens {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]goldenCell, len(got))
		for _, k := range keys {
			ordered[k] = got[k]
		}
		buf, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldensPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldensPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden cells to %s", len(got), goldensPath)
		return
	}

	buf, err := os.ReadFile(goldensPath)
	if err != nil {
		t.Fatalf("reading goldens (generate with -update on known-good code): %v", err)
	}
	want := map[string]goldenCell{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldensPath, err)
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("golden cell %s no longer enumerated by the matrix", key)
			continue
		}
		if g != w {
			t.Errorf("%s: engine diverged from pre-refactor golden:\n  end %d fp %q\n  want end %d fp %q",
				key, g.End, g.FP, w.End, w.FP)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("cell %s missing from %s (regenerate with -update only on known-good code)", key, goldensPath)
		}
	}
}
