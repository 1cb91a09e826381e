// Command sweep runs one application version across processor counts on one
// or all platforms — the paper's §7 future-work question ("when we use real
// systems, we plan to investigate the issues with larger numbers of
// processors"), answerable here by simulation.
//
// Sweep is a thin view over internal/campaign: the cell matrix (processor
// counts × platforms, plus each platform's uniprocessor baseline of the
// original version) comes from campaign.SweepCells, execution is the same
// journalless local runner a one-app campaign uses, and the table is
// campaign.Spec.Table's. For anything bigger — many apps, predicates,
// resumability — use cmd/campaign.
//
// An unknown app, version or platform, or a bad -procs or -scale value, is
// a usage error (exit 2) before anything runs. A failing cell prints as
// "error" while the rest of the sweep completes; failures are listed on
// stderr and the exit code is 1.
//
//	sweep -app ocean -version rows -platform svm -procs 1,2,4,8,16,32
//	sweep -app ocean -version rows -store DIR   # incremental: cached cells are not re-simulated
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"

	_ "repro/internal/apps"
	"repro/internal/campaign"
	"repro/internal/platform"
)

// parseProcs keeps the historical name alive in this package for the fuzz
// target; the grammar itself lives in internal/campaign, shared with
// cmd/campaign's spec axis.
func parseProcs(s string) ([]int, error) {
	return campaign.ParseProcs(s)
}

func main() {
	app := flag.String("app", "ocean", "application name")
	version := flag.String("version", "rows", "application version")
	plat := flag.String("platform", "", "platform; empty = all three")
	procs := flag.String("procs", "1,2,4,8,16", "comma-separated processor counts")
	scale := flag.Float64("scale", 1, "problem size scale factor")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = serial)")
	storeDir := flag.String("store", "", "persistent result store directory; already-computed cells are loaded instead of simulated")
	flag.Parse()

	counts, err := parseProcs(*procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	plats := platform.Names
	if *plat != "" {
		plats = []string{*plat}
	}
	cells := campaign.SweepCells(*app, *version, plats, counts, *scale)
	for _, c := range cells {
		if err := c.Spec.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(2)
		}
	}

	memo, err := campaign.OpenMemo(*storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	runner := &campaign.Runner{
		Name:  "sweep",
		Cells: cells,
		Exec:  &campaign.Local{Memo: memo, Workers: *workers},
	}
	rep, _ := runner.Run(context.Background()) // no journal and a background ctx: never interrupted

	// Render the table serially from the settled entries, so it is
	// byte-identical to a serial run regardless of -workers.
	view := campaign.Spec{
		Apps:      []campaign.AppMatrix{{App: *app, Versions: []string{*version}}},
		Platforms: plats,
		Procs:     counts,
		Scales:    []float64{*scale},
	}
	fmt.Print(view.Table(rep.Entries))

	fmt.Fprintf(os.Stderr, "sweep: cache: %s\n", memo.Stats())

	if fails := rep.Failed(); len(fails) > 0 {
		inMatrix := map[int]bool{}
		for _, np := range counts {
			inMatrix[np] = true
		}
		var lines []string
		for _, c := range rep.Cells {
			e, ok := rep.Entries[c.Key]
			if !ok || e.Status != "failed" {
				continue
			}
			what := fmt.Sprintf("P=%d on %s", c.Spec.NumProcs, c.Spec.Platform)
			if c.Spec.Version != *version || !inMatrix[c.Spec.NumProcs] {
				what = "baseline on " + c.Spec.Platform
			}
			msg := e.Msg
			if msg == "" {
				msg = e.Kind
			}
			lines = append(lines, fmt.Sprintf("  %s: %s", what, msg))
		}
		sort.Strings(lines)
		fmt.Fprintf(os.Stderr, "sweep: %d cell(s) failed:\n", len(fails))
		for _, l := range lines {
			fmt.Fprintln(os.Stderr, l)
		}
		os.Exit(1)
	}
}
