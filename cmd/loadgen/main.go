// Command loadgen hammers a serve instance with a mix of /run cells and
// reports throughput and latency percentiles, so the cache and request
// coalescing are benchmarked rather than assumed. Run it twice against the
// same store-backed server to measure cold vs warm service:
//
//	loadgen -addr http://127.0.0.1:8080 \
//	        -cells "lu/orig@svm:8,ocean/rows@svm:8,radix/orig@svm:8" \
//	        -scale 0.25 -c 16 -n 20000 -json
//
// Workers rotate through the mix evenly. After the run, loadgen scrapes
// the server's /metrics and reports its simulation count and
// simulations-per-unique-cell — the cache-perfection invariant (exactly 1
// on a cold store, 0 warm). -json emits the whole report machine-readable
// on stdout.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// cell is one /run target of the mix.
type cell struct {
	app, version, platform string
	procs                  int
}

// parseCells parses "app/version@platform:procs,..." into the cell mix.
func parseCells(s string) ([]cell, error) {
	var cells []cell
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		av, rest, ok := strings.Cut(f, "@")
		if !ok {
			return nil, fmt.Errorf("bad cell %q (want app/version@platform:procs)", f)
		}
		app, version, ok := strings.Cut(av, "/")
		if !ok {
			return nil, fmt.Errorf("bad cell %q: missing /version", f)
		}
		platform, procsStr, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("bad cell %q: missing :procs", f)
		}
		// An empty component would parse here and only surface later as a
		// confusing server 422 mid-run; reject it up front instead.
		switch {
		case app == "":
			return nil, fmt.Errorf("bad cell %q: empty app", f)
		case version == "":
			return nil, fmt.Errorf("bad cell %q: empty version", f)
		case platform == "":
			return nil, fmt.Errorf("bad cell %q: empty platform", f)
		}
		procs, err := strconv.Atoi(procsStr)
		if err != nil || procs < 1 {
			return nil, fmt.Errorf("bad cell %q: bad processor count %q", f, procsStr)
		}
		cells = append(cells, cell{app, version, platform, procs})
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("empty cell mix")
	}
	return cells, nil
}

// percentile returns the p-th percentile (0..100) of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)-1))
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// scrapeMetric fetches base/metrics and returns the value of the first
// sample named metric (exact name, no labels).
func scrapeMetric(client *http.Client, base, metric string) (float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s/metrics: HTTP %d", base, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := parseMetricLine(sc.Text(), metric); ok {
			return v, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("metric %q not found at %s/metrics", metric, base)
}

// parseMetricLine matches one Prometheus text line against an exact,
// label-less metric name.
func parseMetricLine(line, metric string) (float64, bool) {
	rest, ok := strings.CutPrefix(line, metric+" ")
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// latencyMs is a percentile summary in milliseconds.
type latencyMs struct {
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

func summarize(lats []time.Duration) latencyMs {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	out := latencyMs{
		P50: ms(percentile(lats, 50)),
		P90: ms(percentile(lats, 90)),
		P99: ms(percentile(lats, 99)),
	}
	if len(lats) > 0 {
		out.Max = ms(lats[len(lats)-1])
	}
	return out
}

// report is the machine-readable result (-json).
type report struct {
	Addr              string         `json:"addr"`
	Requests          int            `json:"requests"`
	Workers           int            `json:"workers"`
	UniqueCells       int            `json:"unique_cells"`
	ElapsedSeconds    float64        `json:"elapsed_seconds"`
	ReqPerSec         float64        `json:"req_per_sec"`
	Latency           latencyMs      `json:"latency_ms"`
	Status            map[string]int `json:"status"`
	TransportErrors   int            `json:"transport_errors"`
	Simulations       float64        `json:"simulations"`
	SimsPerUniqueCell float64        `json:"sims_per_unique_cell"`
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "serve base URL")
	cellsFlag := flag.String("cells", "lu/orig@svm:8,ocean/rows@svm:8,radix/orig@svm:8", "comma-separated cell mix: app/version@platform:procs")
	scale := flag.Float64("scale", 1, "problem size scale for every cell")
	conc := flag.Int("c", 8, "concurrent client workers")
	n := flag.Int("n", 1000, "total requests to issue")
	jsonOut := flag.Bool("json", false, "emit the machine-readable report on stdout instead of text")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	cells, err := parseCells(*cellsFlag)
	if err != nil {
		fail(err)
	}
	base := strings.TrimSuffix(*addr, "/")

	paths := make([]string, len(cells))
	for i, c := range cells {
		q := url.Values{}
		q.Set("app", c.app)
		q.Set("version", c.version)
		q.Set("platform", c.platform)
		q.Set("p", strconv.Itoa(c.procs))
		q.Set("scale", strconv.FormatFloat(*scale, 'g', -1, 64))
		paths[i] = "/run?" + q.Encode()
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *conc}}

	simsBefore, simsBeforeErr := scrapeMetric(client, base, "svmserve_simulations_total")

	type sample struct {
		d    time.Duration
		code int
		cell int
		err  bool
	}
	samples := make([]sample, *n)
	var next int64
	var mu sync.Mutex
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if int(next) >= *n {
			return -1
		}
		i := int(next)
		next++
		return i
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := take()
				if i < 0 {
					return
				}
				ci := (i + w) % len(cells)
				t0 := time.Now()
				resp, err := client.Get(base + paths[ci])
				d := time.Since(t0)
				if err != nil {
					samples[i] = sample{d, 0, ci, true}
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				samples[i] = sample{d, resp.StatusCode, ci, false}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	codes := map[int]int{}
	var errs int
	lats := make([]time.Duration, 0, *n)
	uniqueCells := map[int]bool{}
	for _, s := range samples {
		uniqueCells[s.cell] = true
		if s.err {
			errs++
			continue
		}
		codes[s.code]++
		if s.code == 200 {
			lats = append(lats, s.d)
		}
	}

	rep := report{
		Addr:            base,
		Requests:        *n,
		Workers:         *conc,
		UniqueCells:     len(uniqueCells),
		ElapsedSeconds:  elapsed.Seconds(),
		ReqPerSec:       float64(*n) / elapsed.Seconds(),
		Latency:         summarize(lats),
		Status:          map[string]int{},
		TransportErrors: errs,
		Simulations:     -1,
	}
	for c, cnt := range codes {
		rep.Status[strconv.Itoa(c)] = cnt
	}

	simsAfter, simsAfterErr := scrapeMetric(client, base, "svmserve_simulations_total")
	if simsBeforeErr == nil && simsAfterErr == nil {
		rep.Simulations = simsAfter - simsBefore
		if rep.UniqueCells > 0 {
			rep.SimsPerUniqueCell = rep.Simulations / float64(rep.UniqueCells)
		}
	} else {
		fmt.Fprintf(os.Stderr, "loadgen: scrape: %v\n", errors.Join(simsBeforeErr, simsAfterErr))
	}

	if *jsonOut {
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(append(enc, '\n'))
	} else {
		fmt.Printf("loadgen: %d requests, %d workers, %d cells, %.2fs\n",
			*n, *conc, len(cells), elapsed.Seconds())
		fmt.Printf("  throughput: %.1f req/s\n", rep.ReqPerSec)
		var codeKeys []int
		for c := range codes {
			codeKeys = append(codeKeys, c)
		}
		sort.Ints(codeKeys)
		for _, c := range codeKeys {
			fmt.Printf("  status %d: %d\n", c, codes[c])
		}
		if errs > 0 {
			fmt.Printf("  transport errors: %d\n", errs)
		}
		if len(lats) > 0 {
			fmt.Printf("  latency p50=%.3gms p90=%.3gms p99=%.3gms max=%.3gms\n",
				rep.Latency.P50, rep.Latency.P90, rep.Latency.P99, rep.Latency.Max)
		}
		if rep.Simulations >= 0 {
			fmt.Printf("  simulations: %g for %d unique cell(s) = %.3g sims/cell\n",
				rep.Simulations, rep.UniqueCells, rep.SimsPerUniqueCell)
		}
	}
	if codes[200] == 0 {
		os.Exit(1)
	}
}
