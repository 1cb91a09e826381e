package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// journalFingerprints reads the committed irregular campaign journal's
// result fingerprints, keyed by memo key.
func journalFingerprints(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "campaigns", "irregular.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fps := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e struct{ Key, FP string }
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		fps[e.Key] = e.FP
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
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
