package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// journalFingerprints reads the committed irregular campaign journal's
// cell-document fingerprints, keyed by memo key.
func journalFingerprints(t *testing.T) map[string]string {
	t.Helper()
	_, entries, err := campaign.ReadJournal(filepath.Join("..", "..", "campaigns", "irregular.journal"))
	if err != nil {
		t.Fatal(err)
	}
	fps := map[string]string{}
	for _, e := range entries {
		fps[e.Key] = e.FP
	}
	return fps
}

// TestJSONMatchesJournalFingerprints: `svmsim -json` prints the canonical
// cell document a campaign fingerprints, so its bytes hash to the
// committed journal's fingerprint for the same cell.
func TestJSONMatchesJournalFingerprints(t *testing.T) {
	fps := journalFingerprints(t)
	for _, c := range []struct {
		key  string
		args []string
	}{
		{"bfs/dir@dsm p=1 scale=0.5 freecs=false noverify=false check=false quantum=0",
			[]string{"-app", "bfs", "-version", "dir", "-platform", "dsm", "-p", "1", "-scale", "0.5"}},
		{"kvstore/shard@svm p=4 scale=0.5 freecs=false noverify=false check=false quantum=0",
			[]string{"-app", "kvstore", "-version", "shard", "-platform", "svm", "-p", "4", "-scale", "0.5"}},
	} {
		want, ok := fps[c.key]
		if !ok {
			t.Fatalf("%s not in the committed journal", c.key)
		}
		code, stdout, stderr := clitest.Run(t, append([]string{"-json"}, c.args...)...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", c.key, code, stderr)
		}
		sum := sha256.Sum256([]byte(stdout))
		if got := hex.EncodeToString(sum[:8]); got != want {
			t.Errorf("%s: svmsim -json fingerprint %s, journal has %s", c.key, got, want)
		}
	}
}

// TestSpeedupLeavesTraceUnchanged: the -speedup baseline is a separate run
// with no observability hooks, so it never writes into the -trace file.
func TestSpeedupLeavesTraceUnchanged(t *testing.T) {
	dir := t.TempDir()
	trace := func(name string, extra ...string) []byte {
		path := filepath.Join(dir, name)
		args := append([]string{"-app", "radix", "-version", "orig", "-platform", "svm",
			"-p", "4", "-scale", "0.125", "-trace", path}, extra...)
		if code, _, stderr := clitest.Run(t, args...); code != 0 {
			t.Fatalf("%q: exit %d: %s", args, code, stderr)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := trace("plain.json")
	if len(plain) == 0 {
		t.Fatal("empty trace")
	}
	for _, extra := range [][]string{{"-speedup"}, {"-speedup", "-json"}} {
		if got := trace("speedup.json", extra...); !bytes.Equal(got, plain) {
			t.Errorf("%q: trace differs from the plain run's (%d vs %d bytes)", extra, len(got), len(plain))
		}
	}
}

// The -speedup line names the baseline it divides by: the app's original
// version at P=1, which for barnes is splash, not orig.
func TestSpeedupNamesOriginalVersion(t *testing.T) {
	code, stdout, stderr := clitest.Run(t, "-app", "barnes", "-version", "spatial", "-platform", "svm",
		"-p", "2", "-scale", "0.125", "-speedup")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "speedup vs uniprocessor barnes/splash: ") {
		t.Errorf("speedup line does not name barnes/splash:\n%s", stdout)
	}
}

// hotRows returns the data rows of the -hot table headed by title ("hot
// pages" or "hot locks"): the indented lines after its column header.
func hotRows(stdout, title string) []string {
	_, rest, ok := strings.Cut(stdout, title+" (top 10):\n")
	if !ok {
		return nil
	}
	var rows []string
	for _, line := range strings.Split(rest, "\n")[1:] {
		if !strings.HasPrefix(line, " ") {
			break
		}
		rows = append(rows, line)
	}
	return rows
}

// TestHotOnEveryPreset: -hot profiles through a counting trace sink, so a
// hardware-coherent preset prints its hot-lock rows (raytrace's work-queue
// lock) and SVM prints both tables.
func TestHotOnEveryPreset(t *testing.T) {
	for _, c := range []struct {
		plat         string
		pages, locks bool
	}{
		{"smp", false, true},
		{"svm", true, true},
	} {
		code, stdout, stderr := clitest.Run(t, "-app", "raytrace", "-platform", c.plat,
			"-p", "4", "-scale", "0.125", "-hot")
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", c.plat, code, stderr)
		}
		if !strings.Contains(stdout, "hot pages (top 10):") || !strings.Contains(stdout, "hot locks (top 10):") {
			t.Fatalf("%s: no -hot report:\n%s", c.plat, stdout)
		}
		if got := len(hotRows(stdout, "hot pages")) > 0; got != c.pages {
			t.Errorf("%s: hot-page rows present = %v, want %v:\n%s", c.plat, got, c.pages, stdout)
		}
		if got := len(hotRows(stdout, "hot locks")) > 0; got != c.locks {
			t.Errorf("%s: hot-lock rows present = %v, want %v:\n%s", c.plat, got, c.locks, stdout)
		}
	}
}

func TestSampleWithoutTraceIsUsageError(t *testing.T) {
	clitest.WantUsageError(t, "-sample needs -trace", "-app", "radix", "-p", "4", "-scale", "0.125", "-sample", "1000")
}

// A negative -trace-buffer is a usage error, not a silent run with no ring.
func TestNegativeTraceBufferIsUsageError(t *testing.T) {
	clitest.WantUsageError(t, "bad trace ring size -1", "-app", "radix", "-p", "4", "-scale", "0.125", "-trace-buffer", "-1")
}

// A scale whose problem size does not fit an int fails the cell (exit 1)
// instead of simulating the app's floor size.
func TestHugeScaleFailsCell(t *testing.T) {
	code, _, stderr := clitest.Run(t, "-app", "lu", "-version", "4d", "-p", "2", "-scale", "1e308")
	if code != 1 || !strings.Contains(stderr, "does not fit an int") {
		t.Errorf("exit %d, stderr %q; want exit 1 naming the overflow", code, stderr)
	}
}
