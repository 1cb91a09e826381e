package store

import (
	"os"
	"path/filepath"
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
	if st := s.Stats(); st.Hits != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 put", st)
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
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
}

// entryFile locates the single entry file of a one-entry store.
func entryFile(t *testing.T, s *Store) string {
	t.Helper()
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), ".json") {
			return filepath.Join(s.Dir(), de.Name())
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
			if st := s.Stats(); st.Corrupt != 1 {
				t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
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

func TestGCEvictsOldestAndReapsTemps(t *testing.T) {
	s := open(t, t.TempDir())
	keys := []string{"k0", "k1", "k2", "k3", "k4"}
	for i, k := range keys {
		if err := s.Put(k, Result{Run: testRun(k, uint64(i+1))}); err != nil {
			t.Fatal(err)
		}
		// Age entries distinctly: k0 oldest.
		old := time.Now().Add(-time.Duration(len(keys)-i) * time.Hour)
		if err := os.Chtimes(s.path(s.logicalKey(k)), old, old); err != nil {
			t.Fatal(err)
		}
	}
	// A crash leftover: stale temp file.
	stale := filepath.Join(s.Dir(), tempPrefix+"dead")
	if err := os.WriteFile(stale, []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}
	oldT := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, oldT, oldT); err != nil {
		t.Fatal(err)
	}

	evicted, err := s.GC(GCPolicy{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 3 {
		t.Errorf("evicted %d entries, want 3", evicted)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file not reaped")
	}
	if n, _ := s.Len(); n != 2 {
		t.Errorf("Len = %d after GC, want 2", n)
	}
	// The newest survive, the oldest are gone.
	if _, ok := s.Get("k4"); !ok {
		t.Error("newest entry evicted")
	}
	if _, ok := s.Get("k0"); ok {
		t.Error("oldest entry survived MaxEntries=2")
	}
	// The sweep and its evictions are surfaced in Stats.
	st := s.Stats()
	if st.GCRuns != 1 || st.GCEvicted != 3 {
		t.Errorf("GC stats = %d runs / %d evicted, want 1 / 3", st.GCRuns, st.GCEvicted)
	}
}

func TestGCMaxAge(t *testing.T) {
	s := open(t, t.TempDir())
	for _, k := range []string{"fresh", "stale"} {
		if err := s.Put(k, Result{Run: testRun(k, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(s.path(s.logicalKey("stale")), old, old); err != nil {
		t.Fatal(err)
	}
	evicted, err := s.GC(GCPolicy{MaxAge: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 1 {
		t.Errorf("evicted %d, want 1", evicted)
	}
	if _, ok := s.Get("fresh"); !ok {
		t.Error("fresh entry evicted by MaxAge")
	}
}

func TestFingerprintStableAndNonEmpty(t *testing.T) {
	a, b := Fingerprint(), Fingerprint()
	if a == "" || a != b {
		t.Errorf("Fingerprint() = %q then %q, want stable non-empty", a, b)
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
