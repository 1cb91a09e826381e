// Command campaign runs a declarative experiment campaign: a spec file
// naming apps × versions × platforms × processor counts × scales expands
// into a deterministic cell manifest, which is executed by a bounded
// worker pool over the memo/store tiers.
//
// Progress is journaled: every completed cell is fsynced to the journal
// with its result fingerprint, so a killed campaign re-invoked with
// -resume recomputes nothing, and a completed campaign re-run performs
// zero simulations while emitting a byte-identical manifest.
//
//	campaign -spec campaigns/scaling128.json -store /tmp/cstore -workers 8
//	campaign -spec campaigns/scaling128.json -store /tmp/cstore -resume   # pick up where it died
//	campaign -spec S.json -table                                          # render the scaling tables
//	campaign -spec S.json -cpuprofile cpu.out                             # host CPU profile, split by cell with pprof -tagfocus
//
// Exit status: 0 success, 1 failed cells, 2 usage/spec errors,
// 3 interrupted (signal or -max-cells) with the journal intact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	_ "repro/internal/apps"
	"repro/internal/campaign"
	"repro/internal/harness"
)

// progressEvent is one -json line on stdout: cumulative campaign state
// after a cell settles, plus throughput and ETA estimates.
type progressEvent struct {
	Type       string                  `json:"type"` // "progress" or "summary"
	Campaign   string                  `json:"campaign"`
	Done       int                     `json:"done"`
	Failed     int                     `json:"failed"`
	Resumed    int                     `json:"resumed"`
	Total      int                     `json:"total"`
	CellsPerS  float64                 `json:"cells_per_sec"`
	EtaSeconds float64                 `json:"eta_seconds"`
	Platforms  map[string]*platProgess `json:"platforms"`
	Cache      string                  `json:"cache,omitempty"` // summary only
	Elapsed    float64                 `json:"elapsed_seconds,omitempty"`
}

type platProgess struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

func fatal(code int, a ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"campaign:"}, a...)...)
	os.Exit(code)
}

func main() {
	specPath := flag.String("spec", "", "campaign spec file (JSON; required)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrent simulations")
	storeDir := flag.String("store", "", "persistent result store directory; completed cells load instead of simulating")
	journalPath := flag.String("journal", "", "campaign journal file (default: spec path with .journal extension)")
	resume := flag.Bool("resume", false, "resume an existing journal instead of refusing to overwrite it")
	jsonOut := flag.Bool("json", false, "emit machine-readable progress events on stdout")
	manifestPath := flag.String("manifest", "", "write the deterministic manifest summary to this file (also printed to stdout unless -json or -table)")
	table := flag.Bool("table", false, "print the scaling tables (speedup vs uniprocessor original) after the run")
	maxCells := flag.Int("max-cells", 0, "stop after journaling N cells (kill/resume testing); exit 3")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile of the run to `file`; samples carry app, version, platform and procs labels")
	flag.Parse()

	if *specPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fatal(2, err)
	}
	spec, err := campaign.DecodeSpec(data)
	if err != nil {
		fatal(2, err)
	}
	cells, err := spec.Expand()
	if err != nil {
		fatal(2, err)
	}
	digest := campaign.Digest(cells)

	jpath := *journalPath
	if jpath == "" {
		jpath = strings.TrimSuffix(*specPath, ".json") + ".journal"
	}
	journal, err := campaign.OpenJournal(jpath, spec.Name, digest, len(cells), *resume)
	if err != nil {
		fatal(2, err)
	}
	defer journal.Close()

	memo, err := campaign.OpenMemo(*storeDir)
	if err != nil {
		fatal(1, err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Progress state, updated per settled cell from executor goroutines.
	start := time.Now()
	var mu sync.Mutex
	done, failed := 0, 0
	platTotal := map[string]*platProgess{}
	for _, c := range cells {
		pp := platTotal[c.Spec.Platform]
		if pp == nil {
			pp = &platProgess{}
			platTotal[c.Spec.Platform] = pp
		}
		pp.Total++
	}
	enc := json.NewEncoder(os.Stdout)
	lastLine := time.Time{}
	progress := func(resumed int, final bool) {
		completed := done + failed
		elapsed := time.Since(start).Seconds()
		rate := 0.0
		if elapsed > 0 {
			rate = float64(completed-resumed) / elapsed
		}
		eta := 0.0
		if rate > 0 {
			eta = float64(len(cells)-completed) / rate
		}
		ev := progressEvent{
			Type: "progress", Campaign: spec.Name,
			Done: done, Failed: failed, Resumed: resumed, Total: len(cells),
			CellsPerS: rate, EtaSeconds: eta, Platforms: platTotal,
		}
		if final {
			ev.Type = "summary"
			ev.Elapsed = elapsed
			ev.Cache = memo.Stats().String()
		}
		if *jsonOut {
			enc.Encode(ev)
		} else if final || time.Since(lastLine) >= time.Second {
			lastLine = time.Now()
			fmt.Fprintf(os.Stderr, "campaign: %d/%d done (%d resumed, %d failed), %.1f cells/s, eta %s\n",
				completed, len(cells), resumed, failed, rate, time.Duration(eta*float64(time.Second)).Round(time.Second))
		}
	}

	runner := &campaign.Runner{
		Name:      spec.Name,
		Cells:     cells,
		Journal:   journal,
		Exec:      &campaign.Local{Memo: memo, Workers: *workers},
		StopAfter: *maxCells,
	}
	resumedN := 0
	runner.OnEntry = func(c campaign.Cell, e campaign.Entry) {
		mu.Lock()
		defer mu.Unlock()
		if e.Status == "done" {
			done++
			if pp := platTotal[c.Spec.Platform]; pp != nil {
				pp.Done++
			}
		} else {
			failed++
		}
		progress(resumedN, false)
	}

	stopProfile, err := harness.StartCPUProfile(*cpuProfile)
	if err != nil {
		fatal(1, err)
	}
	rep, runErr := runner.Run(ctx)
	if err := stopProfile(); err != nil {
		fatal(1, err)
	}
	// Seed the counters with what the journal already held, then fold in
	// everything the run settled (OnEntry counted those live; recount
	// from the report for the final numbers so resumed cells show too).
	mu.Lock()
	done, failed, resumedN = 0, 0, rep.Resumed
	for pl := range platTotal {
		platTotal[pl].Done = 0
	}
	for _, c := range rep.Cells {
		e, ok := rep.Entries[c.Key]
		if !ok {
			continue
		}
		if e.Status == "done" {
			done++
			if pp := platTotal[c.Spec.Platform]; pp != nil {
				pp.Done++
			}
		} else {
			failed++
		}
	}
	progress(rep.Resumed, true)
	mu.Unlock()

	manifest := rep.Manifest()
	if *manifestPath != "" {
		if err := os.WriteFile(*manifestPath, []byte(manifest), 0o666); err != nil {
			fatal(1, err)
		}
	}
	if !*jsonOut && !*table && *manifestPath == "" {
		fmt.Print(manifest)
	}
	if *table {
		fmt.Println(spec.Table(rep.Entries))
	}
	fmt.Fprintf(os.Stderr, "campaign: cache: %s\n", memo.Stats())

	if rep.Interrupted || runErr != nil {
		fmt.Fprintf(os.Stderr, "campaign: interrupted with %d cell(s) pending; re-run with -resume to continue\n",
			len(rep.Cells)-len(rep.Entries))
		os.Exit(3)
	}
	if fails := rep.Failed(); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "campaign: %d cell(s) failed:\n", len(fails))
		for _, e := range fails {
			fmt.Fprintf(os.Stderr, "  %s: %s: %s\n", e.Key, e.Kind, e.Msg)
		}
		os.Exit(1)
	}
}
