package campaign

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	_ "repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/server"
)

// testFleet is an in-process serve fleet: n real Servers over stub memos
// (separate caches, like separate processes) with static membership.
type testFleet struct {
	addrs  []string
	execs  []*atomic.Uint64
	httpds []*http.Server
}

func newTestFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	f := &testFleet{}
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		f.addrs = append(f.addrs, l.Addr().String())
	}
	for i := 0; i < n; i++ {
		execs := &atomic.Uint64{}
		memo := stubMemo(execs)
		cl, err := cluster.New(cluster.Config{Self: f.addrs[i], Peers: f.addrs, VNodes: 32})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Config{Memo: memo, Cluster: cl, MaxInflight: 8, MaxQueue: 128})
		hs := &http.Server{Handler: srv}
		go hs.Serve(listeners[i])
		f.execs = append(f.execs, execs)
		f.httpds = append(f.httpds, hs)
	}
	t.Cleanup(func() {
		for _, hs := range f.httpds {
			hs.Close()
		}
	})
	return f
}

func (f *testFleet) totalExecs() uint64 {
	var total uint64
	for _, e := range f.execs {
		total += e.Load()
	}
	return total
}

// metricTotal scrapes one metric across the fleet's /metrics endpoints.
func (f *testFleet) metricTotal(t *testing.T, line string) uint64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(line) + ` (\d+)$`)
	var total uint64
	for _, a := range f.addrs {
		resp, err := http.Get("http://" + a + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		m := re.FindSubmatch(body)
		if m == nil {
			t.Fatalf("node %s /metrics lacks %q:\n%s", a, line, body)
		}
		v, _ := strconv.ParseUint(string(m[1]), 10, 64)
		total += v
	}
	return total
}

func fleetExec(f *testFleet) *Fleet {
	return &Fleet{
		Addrs:       f.addrs,
		Campaign:    "fleettest",
		BatchSize:   3, // several batches per node even on a small matrix
		MaxAttempts: 3,
		Backoff:     time.Millisecond,
	}
}

// TestFleetCampaignExactlyOnce runs a campaign against a 3-node fleet and
// checks the core distributed properties: every cell settles, fleet-wide
// simulations per unique cell == 1, per-cell fingerprints are identical to
// a local run of the same spec, and the fleet's campaign metrics add up.
func TestFleetCampaignExactlyOnce(t *testing.T) {
	cells, err := runSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	f := newTestFleet(t, 3)

	r := &Runner{Name: "runtest", Cells: cells, Exec: fleetExec(f)}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != len(cells) {
		t.Fatalf("settled %d of %d cells", len(rep.Entries), len(cells))
	}
	if got := f.totalExecs(); got != uint64(len(cells)) {
		t.Errorf("fleet executed %d simulations for %d unique cells", got, len(cells))
	}

	// The local path must fingerprint identically, cell for cell.
	var localExecs atomic.Uint64
	local := &Runner{Name: "runtest", Cells: cells, Exec: &Local{Memo: stubMemo(&localExecs), Workers: 4}}
	lrep, err := local.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Manifest(), lrep.Manifest(); got != want {
		t.Errorf("fleet manifest differs from local manifest:\n--- local\n%s\n--- fleet\n%s", want, got)
	}

	// Campaign metrics: done+failed across the fleet covers every cell.
	done := f.metricTotal(t, `svmserve_campaign_cells_total{status="done"}`)
	failed := f.metricTotal(t, `svmserve_campaign_cells_total{status="failed"}`)
	if done+failed != uint64(len(cells)) {
		t.Errorf("campaign metrics: done %d + failed %d != %d cells", done, failed, len(cells))
	}
	if failed == 0 {
		t.Error("campaign metrics missed the deterministic radix failures")
	}
}

// TestFleetCancelResume interrupts a fleet campaign mid-flight and resumes
// it from the journal: the resume skips everything journaled and the final
// manifest is byte-identical to an uninterrupted local run.
func TestFleetCancelResume(t *testing.T) {
	cells, err := runSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	digest := Digest(cells)
	f := newTestFleet(t, 3)
	jpath := filepath.Join(t.TempDir(), "c.journal")

	j1, err := OpenJournal(jpath, "runtest", digest, len(cells), false)
	if err != nil {
		t.Fatal(err)
	}
	// One batch in flight at a time: StopAfter cancels from inside the
	// emit of the batch that settles the 4th cell, before the next batch is
	// posted. With concurrent batches the stub memos can settle all cells
	// before the cancel lands, and nothing is left to resume.
	ex1 := fleetExec(f)
	ex1.Workers = 1
	r1 := &Runner{Name: "runtest", Cells: cells, Journal: j1, Exec: ex1, StopAfter: 4}
	rep1, err := r1.Run(context.Background())
	j1.Close()
	if err == nil || !rep1.Interrupted {
		t.Fatalf("interrupt: err=%v interrupted=%v", err, rep1.Interrupted)
	}
	if len(rep1.Entries) >= len(cells) {
		t.Fatalf("interrupt settled all %d cells; nothing to resume", len(cells))
	}

	j2, err := OpenJournal(jpath, "runtest", digest, len(cells), true)
	if err != nil {
		t.Fatal(err)
	}
	r2 := &Runner{Name: "runtest", Cells: cells, Journal: j2, Exec: fleetExec(f)}
	rep2, err := r2.Run(context.Background())
	j2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed != len(rep1.Entries) {
		t.Errorf("resume skipped %d, journal held %d", rep2.Resumed, len(rep1.Entries))
	}
	// Exactly-once fleet-wide across interrupt + resume.
	if got := f.totalExecs(); got != uint64(len(cells)) {
		t.Errorf("interrupt+resume executed %d simulations for %d cells", got, len(cells))
	}

	var localExecs atomic.Uint64
	local := &Runner{Name: "runtest", Cells: cells, Exec: &Local{Memo: stubMemo(&localExecs), Workers: 4}}
	lrep, _ := local.Run(context.Background())
	if got, want := rep2.Manifest(), lrep.Manifest(); got != want {
		t.Errorf("resumed fleet manifest differs from local:\n--- local\n%s\n--- fleet\n%s", want, got)
	}
}

// TestFleetRetryTransient fronts a real server with a handler that fails
// the first request of each batch worker, and checks that the campaign
// retries through it, records the attempts, and bumps the retry metric.
func TestFleetRetryTransient(t *testing.T) {
	cells, err := tinySpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Uint64
	memo := stubMemo(&execs)
	srv := server.New(server.Config{Memo: memo, MaxInflight: 8, MaxQueue: 128})

	var fails atomic.Int64
	fails.Store(1)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/run" && r.Method == http.MethodPost && fails.Add(-1) >= 0 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	fl := &Fleet{
		Addrs:       []string{flaky.URL},
		Campaign:    "retrytest",
		BatchSize:   len(cells), // one batch, so the single 500 hits it
		Workers:     1,
		MaxAttempts: 3,
		Backoff:     time.Millisecond,
	}
	r := &Runner{Name: "tiny", Cells: cells, Exec: fl}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != len(cells) {
		t.Fatalf("settled %d of %d cells", len(rep.Entries), len(cells))
	}
	for _, c := range cells {
		if e := rep.Entries[c.Key]; e.Attempts < 2 {
			t.Errorf("cell %s settled with attempts=%d, want >=2 after the 500", c.Key, e.Attempts)
		}
	}
	// The retry batch carried X-Campaign-Retry, so the server counted it.
	resp, err := http.Get(flaky.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	re := regexp.MustCompile(`(?m)^svmserve_campaign_cells_total\{status="retried"\} (\d+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		t.Fatalf("/metrics lacks the retried counter:\n%s", body)
	}
	if v, _ := strconv.ParseUint(string(m[1]), 10, 64); v == 0 {
		t.Error("retried counter stayed 0 despite a retried batch")
	}
}

// TestFleetExhaustedRetriesStayPending checks the other side of the retry
// contract: when a node never recovers, cells journal as transient
// failures, which do NOT settle — a resume retries them.
func TestFleetExhaustedRetriesStayPending(t *testing.T) {
	cells, err := tinySpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer dead.Close()

	jpath := filepath.Join(t.TempDir(), "c.journal")
	j, err := OpenJournal(jpath, "tiny", Digest(cells), len(cells), false)
	if err != nil {
		t.Fatal(err)
	}
	fl := &Fleet{Addrs: []string{dead.URL}, Campaign: "tiny", MaxAttempts: 2, Backoff: time.Millisecond}
	r := &Runner{Name: "tiny", Cells: cells, Journal: j, Exec: fl}
	rep, err := r.Run(context.Background())
	j.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		e, ok := rep.Entries[c.Key]
		if !ok || e.Kind != KindTransient {
			t.Fatalf("cell %s entry %+v, want transient failure", c.Key, e)
		}
		if e.Complete() {
			t.Fatalf("transient entry counts as complete: %+v", e)
		}
	}
	// A resume finds nothing settled and retries everything.
	j2, err := OpenJournal(jpath, "tiny", Digest(cells), len(cells), true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	for key, e := range j2.Entries() {
		if e.Complete() {
			t.Errorf("journaled transient entry for %s resumed as complete", key)
		}
	}
}

func TestRingName(t *testing.T) {
	for in, want := range map[string]string{
		"http://10.0.0.1:8080": "10.0.0.1:8080",
		"https://node-3:443/":  "node-3:443",
		"10.0.0.1:8080":        "10.0.0.1:8080",
	} {
		if got := ringName(in); got != want {
			t.Errorf("ringName(%q) = %q, want %q", in, got, want)
		}
	}
}
