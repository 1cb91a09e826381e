package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// The flags are checked before the spec is read, so a missing spec file
// shows which check fired: the bad flag is named, and good flags fall
// through to the spec error.

// A -workers below 1 is a usage error, not a silent GOMAXPROCS.
func TestBadWorkersIsUsageError(t *testing.T) {
	for _, w := range []string{"0", "-3"} {
		clitest.WantUsageError(t, "bad -workers "+w, "-spec", "missing.json", "-workers", w)
	}
	clitest.WantUsageError(t, "missing.json", "-spec", "missing.json", "-workers", "1")
}

// A negative -max-cells is a usage error, not a silent run of every cell.
func TestBadMaxCellsIsUsageError(t *testing.T) {
	clitest.WantUsageError(t, "bad -max-cells -1", "-spec", "missing.json", "-max-cells", "-1")
	clitest.WantUsageError(t, "missing.json", "-spec", "missing.json", "-max-cells", "0")
}

// A processor-count sweep of one version is a one-app spec whose exclude
// keeps only the original version's P=1 cell: the baseline runs once,
// under the app's own original version (barnes's is splash, not orig), and
// every P row of the swept version's table is a number.
func TestOneAppSweepTable(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "sweep.json")
	err := os.WriteFile(spec, []byte(`{"name":"sweep",
		"apps":[{"app":"barnes","versions":["splash","spatial"]}],
		"platforms":["svm","dsm"],"procs":[1,2,4],"scales":[0.125],
		"exclude":[{"version":"splash","min_procs":2}]}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := clitest.Run(t, "-spec", spec, "-journal", filepath.Join(dir, "sweep.journal"), "-table", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, " 8 simulation(s)") {
		t.Errorf("want 8 simulations (2 baselines + 2 platforms x 3 P):\n%s", stderr)
	}
	_, block, ok := strings.Cut(stdout, "barnes/spatial speedup vs uniprocessor original")
	if !ok {
		t.Fatalf("no barnes/spatial table:\n%s", stdout)
	}
	block, _, _ = strings.Cut(block, "\n\n")
	row := regexp.MustCompile(`^\s+\d+(\s+\d+\.\d\d)+$`)
	lines := strings.Split(block, "\n")[2:] // skip the header's tail and the column line
	if len(lines) != 3 {
		t.Fatalf("want 3 P rows, got %d:\n%s", len(lines), block)
	}
	for _, l := range lines {
		if !row.MatchString(l) {
			t.Errorf("row %q has a non-numeric speedup:\n%s", l, block)
		}
	}
}
