package store

import (
	"debug/elf"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

func testRun(name string, end uint64) *stats.Run {
	r := stats.NewRun(name, 2)
	r.EndTime = end
	r.Procs[0].Cycles[stats.Compute] = end
	r.Procs[1].Cycles[stats.BarrierWait] = end / 2
	r.Procs[0].Counters.Reads = 42
	r.RecordPhase("solve", end/3)
	return r
}

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir())
	want := testRun("lu/orig on svm", 12345)
	if err := s.Put("k1", Result{Run: want}); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k1")
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if got.Run.EndTime != want.EndTime || got.Run.NumProcs != want.NumProcs {
		t.Errorf("round trip mangled run: got end=%d P=%d", got.Run.EndTime, got.Run.NumProcs)
	}
	if got.Run.Procs[0].Counters.Reads != 42 || got.Run.PhaseTimes["solve"] != want.PhaseTimes["solve"] {
		t.Error("round trip dropped counters or phases")
	}
	if _, ok := s.Get("k2"); ok {
		t.Error("hit on a key that was never put")
	}
}

func TestErrorResultRoundTrip(t *testing.T) {
	s := open(t, t.TempDir())
	if err := s.Put("bad", Result{ErrKind: "panic", ErrMsg: "boom at proc 3"}); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("bad")
	if !ok || got.ErrKind != "panic" || got.ErrMsg != "boom at proc 3" || got.Run != nil {
		t.Errorf("error entry = %+v ok=%v", got, ok)
	}
}

func TestMissOnAbsent(t *testing.T) {
	s := open(t, t.TempDir())
	if _, ok := s.Get("never"); ok {
		t.Error("hit on absent key")
	}
}

// entryFile locates the single entry file of a one-entry store.
func entryFile(t *testing.T, s *Store) string {
	t.Helper()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), ".json") {
			return filepath.Join(s.dir, de.Name())
		}
	}
	t.Fatal("no entry file found")
	return ""
}

// Corrupt and truncated entries must read as misses — never errors — and be
// removed so the next Put heals the store. This is the kill -9 contract:
// rename is atomic, so the torn states a reader can see are only ever a
// missing file or (on a weaker filesystem) a truncated/garbage one, and both
// decode paths reject via checksum.
func TestCorruptEntryIsMissAndHeals(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(p string) error
	}{
		{"truncated", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, raw[:len(raw)/2], 0o666)
		}},
		{"garbage", func(p string) error {
			return os.WriteFile(p, []byte("not a store entry at all"), 0o666)
		}},
		{"empty", func(p string) error {
			return os.WriteFile(p, nil, 0o666)
		}},
		{"bitflip", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			raw[len(raw)-3] ^= 0x40
			return os.WriteFile(p, raw, 0o666)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, t.TempDir())
			if err := s.Put("cell", Result{Run: testRun("x", 99)}); err != nil {
				t.Fatal(err)
			}
			p := entryFile(t, s)
			if err := tc.corrupt(p); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get("cell"); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Error("corrupt entry not removed")
			}
			// Heal: rewrite and read back.
			if err := s.Put("cell", Result{Run: testRun("x", 99)}); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("cell"); !ok || got.Run.EndTime != 99 {
				t.Error("store did not heal after rewrite")
			}
		})
	}
}

// A new schema or a new build must never see old entries.
func TestSchemaAndFingerprintInvalidate(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.Put("cell", Result{Run: testRun("x", 7)}); err != nil {
		t.Fatal(err)
	}

	bumped := open(t, dir)
	bumped.schema = s.schema + 1
	if _, ok := bumped.Get("cell"); ok {
		t.Error("entry survived a schema bump")
	}

	rebuilt := open(t, dir)
	rebuilt.fingerprint = "vcs:someoldcommit"
	if _, ok := rebuilt.Get("cell"); ok {
		t.Error("entry from another build fingerprint served")
	}

	// The original keeps hitting.
	if _, ok := s.Get("cell"); !ok {
		t.Error("original store lost its own entry")
	}
}

// A renamed entry file (wrong name for its embedded key) must not be served.
func TestKeyBindingVerified(t *testing.T) {
	s := open(t, t.TempDir())
	if err := s.Put("a", Result{Run: testRun("x", 1)}); err != nil {
		t.Fatal(err)
	}
	p := entryFile(t, s)
	// Masquerade entry "a" as entry "b".
	if err := os.Rename(p, s.path(s.logicalKey("b"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("b"); ok {
		t.Error("foreign entry served under the wrong key")
	}
}

// Open reaps temp files a crashed writer left behind (older than an hour),
// and leaves a fresh temp file (a writer may still hold it) and every
// entry alone.
func TestOpenReapsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for _, k := range []string{"k0", "k1"} {
		if err := s.Put(k, Result{Run: testRun(k, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	stale := filepath.Join(dir, tempPrefix+"dead")
	fresh := filepath.Join(dir, tempPrefix+"live")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	reopened := open(t, dir)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file not reaped")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file reaped: %v", err)
	}
	for _, k := range []string{"k0", "k1"} {
		if _, ok := reopened.Get(k); !ok {
			t.Errorf("entry %s lost on reopen", k)
		}
	}
}

func TestFingerprintStableAndNonEmpty(t *testing.T) {
	a, b := Fingerprint(), Fingerprint()
	if a == "" || a != b {
		t.Errorf("Fingerprint() = %q then %q, want stable non-empty", a, b)
	}
}

// A `go test` binary carries no VCS stamp, so on an ELF host it is
// fingerprinted by the content ID in its Go build-ID note, not by hashing
// the file. The hand parse reads the same note debug/elf finds, every
// truncation of the image yields the note or nothing, and a file without
// the note yields no content ID.
func TestTestBinaryGetsBuildIDFingerprint(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Skip(err)
	}
	ef, err := elf.Open(exe)
	if err != nil {
		t.Skipf("%s is not ELF on %s: %v", exe, runtime.GOOS, err)
	}
	defer ef.Close()
	sec := ef.Section(".note.go.buildid")
	if sec == nil {
		t.Skipf("%s has no Go build-ID note", exe)
	}
	note, err := sec.Data()
	if err != nil {
		t.Fatal(err)
	}
	// The descriptor follows namesz, descsz, type and "Go\x00\x00".
	full := string(note[16 : 16+ef.ByteOrder.Uint32(note[4:])])
	if !strings.Contains(full, "/") {
		t.Fatalf("build ID %q has no components", full)
	}
	id := full[strings.LastIndexByte(full, '/')+1:]
	if got := contentID(exe); got != id {
		t.Errorf("contentID = %q, want %q (the last component of %q)", got, id, full)
	}
	if fp := Fingerprint(); fp != "bid:"+id {
		t.Errorf("Fingerprint() = %q, want %q", fp, "bid:"+id)
	}
	head, err := os.ReadFile(exe)
	if err != nil {
		t.Fatal(err)
	}
	head = head[:min(len(head), 32<<10)]
	for n := 0; n <= len(head); n++ {
		if got := string(goBuildIDNote(head[:n])); got != "" && got != full {
			t.Fatalf("the first %d bytes give build ID %q, want %q or none", n, got, full)
		}
	}
	plain := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(plain, []byte("not an executable"), 0o666); err != nil {
		t.Fatal(err)
	}
	if id := contentID(plain); id != "" {
		t.Errorf("contentID of a non-ELF file = %q, want none", id)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := open(t, t.TempDir())
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 20; j++ {
				_ = s.Put("shared", Result{Run: testRun("x", 5)})
				if res, ok := s.Get("shared"); ok && res.Run.EndTime != 5 {
					t.Error("torn read")
					return
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
