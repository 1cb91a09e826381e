// Package server is the simulation-serving layer: an HTTP front end over
// the harness experiment cache, turning the paper's (app, version, platform,
// procs) matrix into a queryable service. Requests for the same cell
// coalesce (the memo's singleflight), hit the persistent store when one is
// attached, and only simulate when genuinely cold — the cache/coalesce/
// admission-control architecture of an inference-serving stack, applied to
// a deterministic simulator.
//
// Endpoints:
//
//	GET /run?app=A&version=V&platform=P&p=N&scale=S[&speedup=1][&freecs=1][&check=1]
//	    The exact bytes `svmsim -json` prints for the same spec (a failed
//	    cell returns the same structured error JSON with status 422).
//	GET /figures?fig=fig16[&p=N][&scale=S][&check=1]   (fig=headline allowed)
//	GET /healthz   200 "ok" — or 503 "draining" once Drain has been called
//	GET /metrics
//
// Overload behavior: at most MaxInflight requests execute at once; up to
// MaxQueue more wait; beyond that the server sheds load with 429 and a
// Retry-After hint. Every request carries a deadline — if it fires while a
// simulation is still running, the client gets 504 but the simulation
// completes and is cached, so a retry is cheap.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
)

// Config parameterizes a Server. The zero value of each field selects the
// documented default.
type Config struct {
	// Memo is the experiment cache (required). Attach a store to it for
	// persistence; share it to coalesce across servers and runners.
	Memo *harness.Memo
	// MaxInflight bounds concurrently executing requests (default 4).
	MaxInflight int
	// MaxQueue bounds requests waiting for an execution slot before the
	// server sheds with 429 (default 64).
	MaxQueue int
	// Timeout is the per-request deadline (default 120s).
	Timeout time.Duration
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
}

// Server is an http.Handler; build one with New.
type Server struct {
	cfg   Config
	memo  *harness.Memo
	mx    *metrics
	slots chan struct{}
	mux   *http.ServeMux
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.Memo == nil {
		cfg.Memo = harness.NewMemo(nil)
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 120 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{
		cfg:   cfg,
		memo:  cfg.Memo,
		mx:    newMetrics(),
		slots: make(chan struct{}, cfg.MaxInflight),
		mux:   http.NewServeMux(),
	}
	// Every endpoint is a read: other methods get 405 from the mux.
	s.mux.HandleFunc("GET /run", s.handleRun)
	s.mux.HandleFunc("GET /figures", s.handleFigures)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// statusRecorder captures the response code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(rec, r)
	s.mx.countRequest(r.URL.Path, rec.code)
	if r.URL.Path != "/metrics" && r.URL.Path != "/healthz" {
		s.mx.observeLatency(time.Since(start))
	}
}

var errShed = errors.New("admission queue full")

// acquire claims an execution slot, queueing up to MaxQueue waiters.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	if int(s.mx.queued.Add(1)) > s.cfg.MaxQueue {
		s.mx.queued.Add(-1)
		return errShed
	}
	defer s.mx.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run admits the request, then executes fn in a goroutine that keeps the
// slot until the work finishes even if the deadline fires first — the
// simulation completes, lands in the cache, and inflight stays truthful.
// fn must be safe to complete after the handler has returned. No admission
// slot means a 429 with the Retry-After ceiling (cfg.RetryAfter rounded up
// to whole seconds) on shed, or a 504 on a deadline that fired while
// queued.
func (s *Server) run(w http.ResponseWriter, r *http.Request, fn func() (body []byte, contentType string, code int)) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	if err := s.acquire(ctx); err != nil {
		if errors.Is(err, errShed) {
			s.mx.shed.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
			http.Error(w, "serve: overloaded, admission queue full", http.StatusTooManyRequests)
			return
		}
		s.mx.timeouts.Add(1)
		http.Error(w, "serve: timed out waiting for an execution slot", http.StatusGatewayTimeout)
		return
	}
	type out struct {
		body        []byte
		contentType string
		code        int
	}
	ch := make(chan out, 1)
	s.mx.inflight.Add(1)
	go func() {
		body, ct, code := fn()
		// Settle the slot and the gauge before handing the result over, so
		// a /metrics scrape that follows the response never counts this
		// finished request as in flight.
		s.mx.inflight.Add(-1)
		<-s.slots
		ch <- out{body, ct, code}
	}()
	select {
	case o := <-ch:
		w.Header().Set("Content-Type", o.contentType)
		w.WriteHeader(o.code)
		w.Write(o.body)
	case <-ctx.Done():
		s.mx.timeouts.Add(1)
		http.Error(w, "serve: deadline exceeded (the simulation continues and will be cached)", http.StatusGatewayTimeout)
	}
}

// parseRunSpec builds a harness.Spec from /run query parameters, rejecting
// unknown parameters and malformed values.
func parseRunSpec(q map[string][]string) (spec harness.Spec, speedup bool, err error) {
	one := func(k string) (string, bool, error) {
		vs, ok := q[k]
		if !ok {
			return "", false, nil
		}
		if len(vs) != 1 {
			return "", false, fmt.Errorf("parameter %q given %d times", k, len(vs))
		}
		return vs[0], true, nil
	}
	for k := range q {
		switch k {
		case "app", "version", "platform", "p", "scale", "speedup", "freecs", "check":
		default:
			return spec, false, fmt.Errorf("unknown parameter %q", k)
		}
	}
	var ok bool
	if spec.App, ok, err = one("app"); err != nil {
		return spec, false, err
	} else if !ok || spec.App == "" {
		return spec, false, errors.New("missing required parameter \"app\"")
	}
	if spec.Version, _, err = one("version"); err != nil {
		return spec, false, err
	}
	if spec.Platform, _, err = one("platform"); err != nil {
		return spec, false, err
	}
	if v, ok, e := one("p"); e != nil {
		return spec, false, e
	} else if ok {
		n, e := strconv.Atoi(v)
		if e != nil || n < 1 {
			return spec, false, fmt.Errorf("bad processor count %q (want a positive integer)", v)
		}
		spec.NumProcs = n
	}
	if v, ok, e := one("scale"); e != nil {
		return spec, false, e
	} else if ok {
		f, e := strconv.ParseFloat(v, 64)
		if e != nil || f <= 0 {
			return spec, false, fmt.Errorf("bad scale %q (want a positive number)", v)
		}
		spec.Scale = f
	}
	parseBool := func(k string) (bool, error) {
		v, ok, e := one(k)
		if e != nil || !ok {
			return false, e
		}
		b, e := strconv.ParseBool(v)
		if e != nil {
			return false, fmt.Errorf("bad boolean %q for %q", v, k)
		}
		return b, nil
	}
	if speedup, err = parseBool("speedup"); err != nil {
		return spec, false, err
	}
	if spec.FreeCSFaults, err = parseBool("freecs"); err != nil {
		return spec, false, err
	}
	if spec.Check, err = parseBool("check"); err != nil {
		return spec, false, err
	}
	return spec, speedup, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	spec, speedup, err := parseRunSpec(r.URL.Query())
	if err != nil {
		http.Error(w, "serve: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.run(w, r, func() ([]byte, string, int) {
		return CellBody(s.memo, spec, speedup)
	})
}

// CellBody renders one cell through a memo into the canonical single-cell
// document: the exact bytes `svmsim -json` prints, trailing newline
// included, with code 200 — or the structured RunErrorJSON document with
// code 422 for a deterministic failure. It is the one place those bytes
// are produced, shared by the /run handler and by internal/campaign's
// executor, so a campaign's result fingerprints match the served bytes.
func CellBody(memo *harness.Memo, spec harness.Spec, speedup bool) (body []byte, contentType string, code int) {
	jsonBody := func(b []byte, jerr error, code int) ([]byte, string, int) {
		if jerr != nil {
			return []byte("serve: " + jerr.Error() + "\n"), "text/plain; charset=utf-8", http.StatusInternalServerError
		}
		return append(b, '\n'), "application/json", code
	}
	run, err := memo.Run(spec)
	if err != nil {
		b, jerr := harness.RunErrorJSON(spec, err)
		return jsonBody(b, jerr, http.StatusUnprocessableEntity)
	}
	var spFactor float64
	if speedup {
		// The paper's convention, exactly as svmsim -speedup: T1 of the
		// application's original version on the same platform and scale.
		baseSpec := spec
		baseSpec.Version = core.OrigVersion(spec.App)
		baseSpec.NumProcs = 1
		baseSpec.FreeCSFaults = false
		base, berr := memo.Run(baseSpec)
		if berr != nil {
			b, jerr := harness.RunErrorJSON(baseSpec, berr)
			return jsonBody(b, jerr, http.StatusUnprocessableEntity)
		}
		spFactor = float64(base.EndTime) / float64(run.EndTime)
	}
	b, jerr := harness.RunJSON(spec, run, spFactor)
	return jsonBody(b, jerr, http.StatusOK)
}

func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	for k := range q {
		switch k {
		case "fig", "p", "scale", "check":
		default:
			http.Error(w, "serve: unknown parameter \""+k+"\"", http.StatusBadRequest)
			return
		}
	}
	figID := q.Get("fig")
	if figID == "" {
		http.Error(w, "serve: missing required parameter \"fig\" (fig2..fig17 or headline)", http.StatusBadRequest)
		return
	}
	np := 16
	if v := q.Get("p"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, "serve: bad processor count "+strconv.Quote(v), http.StatusBadRequest)
			return
		}
		np = n
	}
	scale := 1.0
	if v := q.Get("scale"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			http.Error(w, "serve: bad scale "+strconv.Quote(v), http.StatusBadRequest)
			return
		}
		scale = f
	}
	check := false
	if v := q.Get("check"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			http.Error(w, "serve: bad boolean for \"check\"", http.StatusBadRequest)
			return
		}
		check = b
	}
	var fig harness.Figure
	if figID != "headline" {
		f, err := harness.FindFigure(figID)
		if err != nil {
			http.Error(w, "serve: "+err.Error(), http.StatusBadRequest)
			return
		}
		fig = f
	}

	// A figures request occupies one admission slot but fans its cells out
	// over its own pool, bounded by the server's inflight budget; its cells
	// land in the shared memo/store.
	s.run(w, r, func() ([]byte, string, int) {
		runner := harness.NewRunnerWith(np, scale, s.memo)
		runner.Check = check
		var out string
		var err error
		if figID == "headline" {
			runner.RunParallel(s.cfg.MaxInflight, harness.HeadlineCells())
			out, err = harness.HeadlineSpeedups(runner)
		} else {
			runner.RunParallel(s.cfg.MaxInflight, fig.Cells())
			var body string
			body, err = fig.Run(runner)
			out = fmt.Sprintf("== %s: %s ==\n%s", fig.ID, fig.Title, body)
		}
		if err != nil {
			return []byte("serve: " + err.Error() + "\n"), "text/plain; charset=utf-8", http.StatusInternalServerError
		}
		return []byte(out), "text/plain; charset=utf-8", http.StatusOK
	})
}

// Drain flips /healthz to 503 so a load balancer stops routing here. Call
// it when SIGTERM shutdown begins, before http.Server.Shutdown: in-flight
// and still-arriving requests are served normally through the drain
// window, but no new traffic is steered in. Irreversible for the life of
// the Server.
func (s *Server) Drain() { s.mx.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.mx.draining.Load() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.mx.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cs := s.memo.Stats()
	extra := map[string]uint64{
		"svmserve_cache_memo_hits_total":    cs.MemoHits,
		"svmserve_cache_memo_misses_total":  cs.MemoMisses,
		"svmserve_cache_store_hits_total":   cs.StoreHits,
		"svmserve_cache_store_misses_total": cs.StoreMisses,
		"svmserve_simulations_total":        cs.Executions,
	}
	if st := s.memo.Store; st != nil {
		ss := st.Stats()
		extra["svmstore_hits_total"] = ss.Hits
		extra["svmstore_misses_total"] = ss.Misses
		extra["svmstore_corrupt_total"] = ss.Corrupt
		extra["svmstore_puts_total"] = ss.Puts
		extra["svmstore_gc_runs_total"] = ss.GCRuns
		extra["svmstore_gc_evicted_total"] = ss.GCEvicted
	}
	var b strings.Builder
	s.mx.render(&b, extra)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}
