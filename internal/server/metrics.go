package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the upper bounds (seconds) of the request latency
// histogram, chosen to straddle both cache hits (microseconds) and cold
// simulations (seconds).
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// metrics is the server's hand-rolled counter set, exposed at /metrics in
// Prometheus text format. Everything is atomic or mutex-guarded; the hot
// path (observe) touches only atomics.
type metrics struct {
	mu       sync.Mutex
	requests map[string]uint64 // "path|code" -> count

	shed     atomic.Uint64 // admission queue full -> 429
	timeouts atomic.Uint64 // request deadline hit -> 504
	inflight atomic.Int64  // requests currently holding an execution slot
	queued   atomic.Int64  // requests waiting for a slot
	draining atomic.Bool   // Drain called; /healthz answers 503

	latBuckets []atomic.Uint64 // len(latencyBuckets)+1: +Inf tail
	latCount   atomic.Uint64
	latSumNs   atomic.Uint64
}

func newMetrics() *metrics {
	return &metrics{
		requests:   map[string]uint64{},
		latBuckets: make([]atomic.Uint64, len(latencyBuckets)+1),
	}
}

func (m *metrics) countRequest(path string, code int) {
	m.mu.Lock()
	m.requests[fmt.Sprintf("%s|%d", path, code)]++
	m.mu.Unlock()
}

func (m *metrics) observeLatency(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, s)
	m.latBuckets[i].Add(1)
	m.latCount.Add(1)
	m.latSumNs.Add(uint64(d.Nanoseconds()))
}

// render writes the metrics in Prometheus text exposition format. extra
// appends caller-provided gauge/counter lines (cache and store stats).
func (m *metrics) render(b *strings.Builder, extra map[string]uint64) {
	fmt.Fprintf(b, "# HELP svmserve_requests_total Requests served, by path and status code.\n")
	fmt.Fprintf(b, "# TYPE svmserve_requests_total counter\n")
	m.mu.Lock()
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		path, code, _ := strings.Cut(k, "|")
		fmt.Fprintf(b, "svmserve_requests_total{path=%q,code=%q} %d\n", path, code, m.requests[k])
	}
	m.mu.Unlock()

	fmt.Fprintf(b, "# HELP svmserve_shed_total Requests shed with 429 because the admission queue was full.\n")
	fmt.Fprintf(b, "# TYPE svmserve_shed_total counter\n")
	fmt.Fprintf(b, "svmserve_shed_total %d\n", m.shed.Load())
	fmt.Fprintf(b, "# HELP svmserve_timeouts_total Requests that hit their deadline before the simulation finished.\n")
	fmt.Fprintf(b, "# TYPE svmserve_timeouts_total counter\n")
	fmt.Fprintf(b, "svmserve_timeouts_total %d\n", m.timeouts.Load())
	fmt.Fprintf(b, "# HELP svmserve_inflight Requests currently holding an execution slot.\n")
	fmt.Fprintf(b, "# TYPE svmserve_inflight gauge\n")
	fmt.Fprintf(b, "svmserve_inflight %d\n", m.inflight.Load())
	fmt.Fprintf(b, "# HELP svmserve_queue_depth Requests waiting for an execution slot.\n")
	fmt.Fprintf(b, "# TYPE svmserve_queue_depth gauge\n")
	fmt.Fprintf(b, "svmserve_queue_depth %d\n", m.queued.Load())
	fmt.Fprintf(b, "# HELP svmserve_draining Whether SIGTERM drain has begun (healthz answers 503).\n")
	fmt.Fprintf(b, "# TYPE svmserve_draining gauge\n")
	fmt.Fprintf(b, "svmserve_draining %d\n", b2i(m.draining.Load()))

	ekeys := make([]string, 0, len(extra))
	for k := range extra {
		ekeys = append(ekeys, k)
	}
	sort.Strings(ekeys)
	for _, k := range ekeys {
		fmt.Fprintf(b, "# TYPE %s counter\n%s %d\n", k, k, extra[k])
	}

	fmt.Fprintf(b, "# HELP svmserve_request_seconds Request latency.\n")
	fmt.Fprintf(b, "# TYPE svmserve_request_seconds histogram\n")
	var cum uint64
	for i, ub := range latencyBuckets {
		cum += m.latBuckets[i].Load()
		fmt.Fprintf(b, "svmserve_request_seconds_bucket{le=%q} %d\n", trimFloat(ub), cum)
	}
	cum += m.latBuckets[len(latencyBuckets)].Load()
	fmt.Fprintf(b, "svmserve_request_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(b, "svmserve_request_seconds_sum %g\n", float64(m.latSumNs.Load())/1e9)
	fmt.Fprintf(b, "svmserve_request_seconds_count %d\n", m.latCount.Load())
}

func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
