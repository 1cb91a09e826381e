package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	_ "repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/store"
)

func get(t *testing.T, ts *httptest.Server, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	code, _, body := get(t, ts, "/healthz")
	if code != 200 || string(body) != "ok\n" {
		t.Errorf("healthz = %d %q, want 200 \"ok\\n\"", code, body)
	}
}

// TestHealthzDrain pins the load-balancer contract: /healthz answers 200
// until drain begins, 503 after, while /run keeps serving through the
// drain window.
func TestHealthzDrain(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if code, _, body := get(t, ts, "/healthz"); code != 200 || string(body) != "ok\n" {
		t.Fatalf("pre-drain healthz = %d %q", code, body)
	}
	srv.Drain()
	if code, _, body := get(t, ts, "/healthz"); code != 503 || string(body) != "draining\n" {
		t.Errorf("draining healthz = %d %q, want 503 \"draining\\n\"", code, body)
	}
	if code, _, _ := get(t, ts, "/run?app=radix&p=2&scale=0.125"); code != 200 {
		t.Errorf("in-drain /run = %d, want 200 (drain only stops NEW routing, not service)", code)
	}
	_, _, body := get(t, ts, "/metrics")
	if !strings.Contains(string(body), "svmserve_draining 1") {
		t.Error("/metrics missing svmserve_draining 1")
	}
}

// TestRunByteIdentity: the served body must be the exact bytes `svmsim
// -json` prints for the same spec — cold and again as a cache hit.
func TestRunByteIdentity(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Memo: harness.NewMemo(st)}))
	defer ts.Close()

	spec := harness.Spec{App: "radix", Version: "orig", Platform: "svm", NumProcs: 4, Scale: 0.125}
	run, err := harness.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := harness.RunJSON(spec, run, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := append(wantJSON, '\n')

	url := "/run?app=radix&version=orig&platform=svm&p=4&scale=0.125"
	code, hdr, cold := get(t, ts, url)
	if code != 200 {
		t.Fatalf("cold /run = %d: %s", code, cold)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if !bytes.Equal(cold, want) {
		t.Errorf("cold body differs from svmsim -json bytes:\n got %d bytes\nwant %d bytes", len(cold), len(want))
	}
	_, _, warm := get(t, ts, url)
	if !bytes.Equal(warm, want) {
		t.Error("cache-hit body differs from svmsim -json bytes")
	}
}

func TestRunSpeedupAndErrors(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	code, _, body := get(t, ts, "/run?app=radix&version=local&platform=svm&p=2&scale=0.125&speedup=1")
	if code != 200 || !strings.Contains(string(body), "\"speedup\":") {
		t.Errorf("speedup run = %d, body missing speedup field:\n%s", code, body)
	}

	// Unknown app: a deterministic failure rendered as structured error JSON.
	code, _, body = get(t, ts, "/run?app=nosuchapp&p=2")
	if code != 422 || !strings.Contains(string(body), "\"error\"") {
		t.Errorf("unknown app = %d %q, want 422 with error JSON", code, body)
	}

	// /run is read-only.
	resp, err := ts.Client().Post(ts.URL+"/run", "application/json", strings.NewReader(`[{"app":"radix"}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /run = %d, want 405", resp.StatusCode)
	}

	// Malformed and unknown parameters are client errors.
	for _, q := range []string{"/run", "/run?app=lu&p=zero", "/run?app=lu&procs=4", "/run?app=lu&scale=-1"} {
		if code, _, _ := get(t, ts, q); code != 400 {
			t.Errorf("%s = %d, want 400", q, code)
		}
	}
}

// blockingMemo returns a memo whose executor blocks until release is
// closed, counting executions.
func blockingMemo(execs *atomic.Uint64, started chan<- struct{}, release <-chan struct{}) *harness.Memo {
	m := harness.NewMemo(nil)
	m.Exec = func(s harness.Spec) (*stats.Run, error) {
		execs.Add(1)
		if started != nil {
			started <- struct{}{}
		}
		<-release
		r := stats.NewRun(s.App, s.NumProcs)
		r.EndTime = 42
		for i := range r.Procs {
			r.Procs[i].Cycles[stats.Compute] = 42
		}
		return r, nil
	}
	return m
}

// TestServerStampede: N concurrent requests for one cold cell perform
// exactly one simulation and every response is byte-identical.
func TestServerStampede(t *testing.T) {
	var execs atomic.Uint64
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	ts := httptest.NewServer(New(Config{Memo: blockingMemo(&execs, started, release), MaxInflight: 8, MaxQueue: 64}))
	defer ts.Close()

	const n = 16
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, bodies[i] = get(t, ts, "/run?app=radix&p=2&scale=0.125")
		}(i)
	}
	<-started // the one execution is in flight; the rest are coalescing
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Errorf("%d concurrent requests executed %d simulations, want exactly 1", n, got)
	}
	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d = %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
}

// TestAdmissionShedsWith429: with one execution slot and a one-deep queue,
// a third distinct cold request is shed with 429 + Retry-After.
func TestAdmissionShedsWith429(t *testing.T) {
	var execs atomic.Uint64
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	ts := httptest.NewServer(New(Config{Memo: blockingMemo(&execs, started, release), MaxInflight: 1, MaxQueue: 1, RetryAfter: 3 * time.Second}))
	defer ts.Close()

	var wg sync.WaitGroup
	resp := func(i int) {
		defer wg.Done()
		code, _, body := get(t, ts, fmt.Sprintf("/run?app=radix&p=%d&scale=0.125", 2+i))
		if code != 200 {
			t.Errorf("occupant %d = %d: %s", i, code, body)
		}
	}
	wg.Add(1)
	go resp(0) // occupies the slot
	<-started
	wg.Add(1)
	go resp(2) // occupies the queue
	// Wait until the queued request is actually counted as queued.
	deadline := time.Now().Add(5 * time.Second)
	srv := ts.Config.Handler.(*Server)
	for srv.mx.queued.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.mx.queued.Load() == 0 {
		t.Fatal("second request never queued")
	}

	code, hdr, _ := get(t, ts, "/run?app=radix&p=8&scale=0.125")
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow request = %d, want 429", code)
	}
	if ra := hdr.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}

	close(release)
	wg.Wait()
	if srv.mx.shed.Load() != 1 {
		t.Errorf("shed counter = %d, want 1", srv.mx.shed.Load())
	}
}

// TestRequestTimeout: a request whose simulation outlives the deadline gets
// 504, and the simulation still completes and lands in the cache.
func TestRequestTimeout(t *testing.T) {
	var execs atomic.Uint64
	release := make(chan struct{})
	memo := blockingMemo(&execs, nil, release)
	ts := httptest.NewServer(New(Config{Memo: memo, Timeout: 50 * time.Millisecond}))
	defer ts.Close()

	code, _, _ := get(t, ts, "/run?app=radix&p=2&scale=0.125")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("slow request = %d, want 504", code)
	}
	close(release)
	// The orphaned simulation finishes and is memoized: the retry is a hit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _, _ = get(t, ts, "/run?app=radix&p=2&scale=0.125")
		if code == 200 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code != 200 {
		t.Fatalf("retry after timeout = %d, want 200", code)
	}
	if execs.Load() != 1 {
		t.Errorf("executed %d times, want 1 (timeout must not abandon the result)", execs.Load())
	}
}

func TestFiguresEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	code, _, body := get(t, ts, "/figures?fig=fig15&p=2&scale=0.125")
	if code != 200 {
		t.Fatalf("/figures = %d: %s", code, body)
	}
	if !strings.Contains(string(body), "== fig15:") || !strings.Contains(string(body), "Compute") {
		t.Errorf("figure body missing table:\n%s", body)
	}
	if code, _, _ := get(t, ts, "/figures?fig=fig99"); code != 400 {
		t.Errorf("unknown figure = %d, want 400", code)
	}
	if code, _, _ := get(t, ts, "/figures"); code != 400 {
		t.Errorf("missing fig = %d, want 400", code)
	}
}

func TestMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Memo: harness.NewMemo(st)}))
	defer ts.Close()

	get(t, ts, "/run?app=radix&p=2&scale=0.125")
	get(t, ts, "/run?app=radix&p=2&scale=0.125") // memo hit
	code, _, body := get(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`svmserve_requests_total{path="/run",code="200"} 2`,
		"svmserve_cache_memo_hits_total 1",
		"svmserve_cache_memo_misses_total 1",
		"svmserve_simulations_total 1",
		"svmstore_puts_total 1",
		"svmstore_gc_runs_total 0",
		"svmstore_gc_evicted_total 0",
		"svmserve_shed_total 0",
		"svmserve_inflight 0",
		"svmserve_queue_depth 0",
		"svmserve_request_seconds_count 2",
		`svmserve_request_seconds_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
