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
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// failApp is a test-only application that fails on more than one
// processor. Version "deadlock": processor 0 takes lock 7 and waits at the
// barrier, while every other processor waits for lock 7. Version "panic":
// every processor takes and releases lock 7, then the last one panics.
type failApp struct{}

func (failApp) Name() string { return "zz-fail" }

func (failApp) Versions() []core.Version {
	return []core.Version{
		{Name: "deadlock", Class: core.Orig, Desc: "deadlocks on lock 7 when P > 1"},
		{Name: "panic", Class: core.Alg, Desc: "the last processor panics when P > 1"},
	}
}

func (failApp) Build(version string, scale float64, as *mem.AddressSpace, np int) (core.Instance, error) {
	return failInstance{panic: version == "panic"}, nil
}

type failInstance struct{ panic bool }

func (f failInstance) Body(p *sim.Proc) {
	if f.panic {
		p.Lock(7)
		p.Unlock(7)
		if p.NP() > 1 && p.ID() == p.NP()-1 {
			panic("zz-fail: deliberate test failure")
		}
		p.Barrier()
		return
	}
	if p.ID() == 0 {
		p.Lock(7)
		p.Barrier()
		return
	}
	p.Compute(1000)
	p.Lock(7)
	p.Unlock(7)
	p.Barrier()
}

func (failInstance) Verify() error       { return nil }
func (failInstance) Fingerprint() uint64 { return 0 }

func init() { core.Register(failApp{}) }

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

// TestObservabilityLeavesJSONUnchanged: the observability flags install
// sinks only, so -json prints the same document with and without them, for
// a passing cell and for a deadlocking and a panicking one; a failing run
// under -trace-buffer follows its error on stderr with the last protocol
// events.
func TestObservabilityLeavesJSONUnchanged(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		app, version string
		code         int
	}{{"radix", "orig", 0}, {"zz-fail", "deadlock", 1}, {"zz-fail", "panic", 1}} {
		name := c.app + "/" + c.version
		args := []string{"-json", "-app", c.app, "-version", c.version, "-p", "4", "-scale", "0.125"}
		code, plain, stderr := clitest.Run(t, args...)
		if code != c.code {
			t.Fatalf("%s: exit %d, want %d: %s", name, code, c.code, stderr)
		}
		if strings.Contains(stderr, "protocol events") {
			t.Errorf("%s: event dump without -trace-buffer:\n%s", name, stderr)
		}
		code, traced, tstderr := clitest.Run(t, append(args, "-trace", filepath.Join(dir, c.version+".json"),
			"-sample", "5000", "-hot", "-trace-buffer", "16")...)
		if code != c.code {
			t.Fatalf("%s traced: exit %d, want %d: %s", name, code, c.code, tstderr)
		}
		if traced != plain {
			t.Errorf("%s: -json document differs with observability flags:\n%s\n---\n%s", name, plain, traced)
		}
		if c.code == 0 {
			continue
		}
		errLine, dump, ok := strings.Cut(tstderr, "\nlast ")
		if !ok || errLine+"\n" != stderr || !strings.Contains(dump, " protocol events:\n") ||
			!strings.Contains(dump, "LockRequest") {
			t.Errorf("%s: stderr is not the plain error followed by the event dump:\n%s", name, tstderr)
		}
	}
}

// With no -version, svmsim runs the app's original version: splash for
// barnes, which has no "orig".
func TestDefaultVersionIsOriginal(t *testing.T) {
	code, stdout, stderr := clitest.Run(t, "-json", "-app", "barnes", "-p", "2", "-scale", "0.125")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, `"version": "splash"`) {
		t.Errorf("default version is not barnes/splash:\n%s", stdout)
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
