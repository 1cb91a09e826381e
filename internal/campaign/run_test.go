package campaign

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	_ "repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/stats"
)

// stubMemo builds a memo whose executor is a fast deterministic fake,
// counting executions. End time is a pure function of the spec so
// fingerprints are stable across memos and processes.
func stubMemo(execs *atomic.Uint64) *harness.Memo {
	memo := harness.NewMemo(nil)
	memo.Exec = func(s harness.Spec) (*stats.Run, error) {
		execs.Add(1)
		if s.App == "radix" && s.NumProcs == 4 {
			// One deterministically failing cell for the error-row paths.
			// StoredError carries an explicit kind through RunErrorJSON.
			return nil, &harness.StoredError{Kind: "deadlock", Msg: "stub deadlock"}
		}
		r := stats.NewRun(s.App, s.NumProcs)
		r.EndTime = 1000*uint64(len(s.App))/uint64(s.NumProcs) + uint64(s.Scale*16)
		for p := range r.Procs {
			r.Procs[p].Cycles[stats.Compute] = r.EndTime
		}
		return r, nil
	}
	return memo
}

func runSpec() *Spec {
	return &Spec{
		Name:      "runtest",
		Apps:      []AppMatrix{{App: "lu", Versions: []string{"orig", "4da"}}, {App: "radix", Versions: []string{"orig"}}},
		Platforms: []string{"svm", "smp"},
		Procs:     []int{1, 4},
		Scales:    []float64{0.25},
	}
}

func runCampaign(t *testing.T, cells []Cell, j *Journal, memo *harness.Memo, stopAfter int) (*Report, error) {
	t.Helper()
	r := &Runner{
		Name:      "runtest",
		Cells:     cells,
		Journal:   j,
		Exec:      &Local{Memo: memo, Workers: 4},
		StopAfter: stopAfter,
	}
	return r.Run(context.Background())
}

// TestKillResumeZeroRecompute is the PR's core acceptance test: interrupt a
// campaign mid-flight, resume it (fresh memo, as a new process would have),
// and verify the resume executes only the cells the journal does not hold —
// zero recomputation — and that the final manifest is byte-identical to an
// uninterrupted run's.
func TestKillResumeZeroRecompute(t *testing.T) {
	cells, err := runSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	digest := Digest(cells)
	dir := t.TempDir()

	// Reference: one uninterrupted run.
	var refExecs atomic.Uint64
	jRef, err := OpenJournal(filepath.Join(dir, "ref.journal"), "runtest", digest, len(cells), false)
	if err != nil {
		t.Fatal(err)
	}
	repRef, err := runCampaign(t, cells, jRef, stubMemo(&refExecs), 0)
	jRef.Close()
	if err != nil {
		t.Fatal(err)
	}
	wantManifest := repRef.Manifest()
	if repRef.Interrupted || refExecs.Load() != uint64(len(cells)) {
		t.Fatalf("reference run: interrupted=%v execs=%d want %d", repRef.Interrupted, refExecs.Load(), len(cells))
	}

	// Interrupted run: stop after 5 journaled cells.
	const stopAfter = 5
	jpath := filepath.Join(dir, "c.journal")
	var execs1 atomic.Uint64
	j1, err := OpenJournal(jpath, "runtest", digest, len(cells), false)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := runCampaign(t, cells, j1, stubMemo(&execs1), stopAfter)
	j1.Close()
	if err == nil || !rep1.Interrupted {
		t.Fatalf("interrupted run: err=%v interrupted=%v", err, rep1.Interrupted)
	}
	settled := len(rep1.Entries)
	if settled >= len(cells) {
		t.Fatalf("interrupt settled everything (%d cells); nothing left to prove resume on", settled)
	}

	// Resume with a FRESH memo: only journal state carries over.
	var execs2 atomic.Uint64
	j2, err := OpenJournal(jpath, "runtest", digest, len(cells), true)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := runCampaign(t, cells, j2, stubMemo(&execs2), 0)
	j2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed != settled {
		t.Errorf("resume skipped %d cells, journal held %d", rep2.Resumed, settled)
	}
	if got, want := execs1.Load()+execs2.Load(), uint64(len(cells)); got != want {
		t.Errorf("interrupt+resume executed %d simulations total, want exactly %d (zero recomputation)", got, want)
	}
	if got := rep2.Manifest(); got != wantManifest {
		t.Errorf("resumed manifest differs from uninterrupted run:\n--- want\n%s\n--- got\n%s", wantManifest, got)
	}

	// Fully-warm third run: the journal is complete, so zero simulations.
	var execs3 atomic.Uint64
	j3, err := OpenJournal(jpath, "runtest", digest, len(cells), true)
	if err != nil {
		t.Fatal(err)
	}
	memo3 := stubMemo(&execs3)
	rep3, err := runCampaign(t, cells, j3, memo3, 0)
	j3.Close()
	if err != nil {
		t.Fatal(err)
	}
	if execs3.Load() != 0 {
		t.Errorf("warm re-run executed %d simulations, want 0", execs3.Load())
	}
	if st := memo3.Stats(); st.Executions != 0 {
		t.Errorf("warm re-run CacheStats.Executions = %d, want 0", st.Executions)
	}
	if got := rep3.Manifest(); got != wantManifest {
		t.Errorf("warm manifest differs:\n--- want\n%s\n--- got\n%s", wantManifest, got)
	}
	if rep3.Resumed != len(cells) || rep3.Executed != 0 {
		t.Errorf("warm run resumed=%d executed=%d, want %d/0", rep3.Resumed, rep3.Executed, len(cells))
	}
}

// TestManifestShape pins the manifest line format: deterministic failures
// settle as failed rows, and the radix deadlock is one of them.
func TestManifestShape(t *testing.T) {
	cells, err := runSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Uint64
	rep, err := runCampaign(t, cells, nil, stubMemo(&execs), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Manifest()
	if !strings.HasPrefix(m, fmt.Sprintf("campaign runtest digest %s cells %d\n", Digest(cells), len(cells))) {
		t.Errorf("manifest header:\n%s", m)
	}
	// radix@4 fails deterministically on both platforms.
	if !strings.Contains(m, "failed deadlock") {
		t.Errorf("manifest lacks the deterministic failure rows:\n%s", m)
	}
	if strings.Contains(m, "pending") && !strings.Contains(m, "pending 0") {
		t.Errorf("completed campaign reports pending cells:\n%s", m)
	}
	fails := rep.Failed()
	if len(fails) != 2 {
		t.Errorf("Failed() = %d entries, want 2 (radix@4 on 2 platforms)", len(fails))
	}
	for _, e := range fails {
		if e.Kind != "deadlock" || e.FP == "" {
			t.Errorf("failure entry %+v: want kind=deadlock with a document fingerprint", e)
		}
	}
}

// TestEntryFor pins the outcome→entry derivation rules.
func TestEntryFor(t *testing.T) {
	c := Cell{Key: "k"}
	// A failure document settles with its kind.
	doc := []byte(`{"error":{"kind":"verify","message":"bad sum"}}` + "\n")
	e := entryFor(Outcome{Cell: c, Body: doc})
	if e.Status != "failed" || e.Kind != "verify" || e.Msg != "bad sum" || e.FP == "" || !e.Complete() {
		t.Errorf("document failure entry %+v", e)
	}
	// Result document settles done with the end time.
	doc = []byte(`{"end_time":42}` + "\n")
	e = entryFor(Outcome{Cell: c, Body: doc})
	if e.Status != "done" || e.End != 42 || e.FP != fingerprint(doc) || e.Attempts != 1 || e.Result != "" {
		t.Errorf("done entry %+v", e)
	}
	// A reported result fingerprint is journaled as 16 hex digits; the
	// document fingerprint does not cover it.
	e = entryFor(Outcome{Cell: c, Body: doc, Result: 0xab})
	if e.Result != "00000000000000ab" || e.FP != fingerprint(doc) {
		t.Errorf("done entry with result %+v", e)
	}
	// Garbage bytes never settle a cell.
	e = entryFor(Outcome{Cell: c, Body: []byte("<html>proxy error")})
	if e.Status != "failed" || e.Kind != KindTransient || e.Complete() || e.FP != "" {
		t.Errorf("garbage-body entry %+v", e)
	}
}
