// Command figures regenerates the paper's tables and figures: Figure 2 (the
// original versions across platforms), Figures 3-15 (per-processor execution
// time breakdowns on SVM), Figure 16 (optimization classes across all three
// platforms) and Figure 17 (Volrend stealing on SVM vs. DSM).
//
// The experiment matrix is pre-executed by a bounded worker pool (one
// deterministic single-goroutine simulation per worker at a time) and then
// rendered serially from the memo cache, so the output is byte-identical to
// a fully serial run regardless of -workers. A cell whose simulation fails
// (panic, deadlock, verification) renders as an error row; the rest of the
// figure still completes, failures are listed on stderr, and the exit code
// is 1. An unknown -fig ID, more than one of -all, -fig and -headline, a -p
// or -workers below 1, a -scale that is not positive or one that overflows
// on top of an app's base scale is a usage error: exit 2 before anything is
// simulated.
//
// Usage:
//
//	figures -all                # every figure, paper order
//	figures -fig fig16          # one figure
//	figures -headline           # the §4 per-application SVM progression
//	figures -p 16 -scale 1      # processors and a scale multiplier on top
//	                            # of each app's base problem size
//	figures -all -workers 8     # at most 8 concurrent simulations
//	figures -all -store DIR     # persist results; a rerun simulates nothing
//	figures -all -cpuprofile F  # host CPU profile of the simulations;
//	                            # split it by cell with pprof -tagfocus
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	_ "repro/internal/apps"
	"repro/internal/campaign"
	"repro/internal/harness"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate (fig2..fig17); empty with -all for everything")
	all := flag.Bool("all", false, "regenerate every figure")
	headline := flag.Bool("headline", false, "print the per-application SVM speedup progression (paper §4)")
	np := flag.Int("p", 16, "number of simulated processors")
	scale := flag.Float64("scale", 1, "problem-size multiplier on top of per-app base scales")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrent simulations pre-executing the experiment matrix (1 = serial)")
	check := flag.Bool("check", false, "enable runtime invariant checking on every cell")
	storeDir := flag.String("store", "", "persistent result store directory; already-computed cells are loaded instead of simulated")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile of the simulations to `file`; samples carry app, version, platform and procs labels")
	flag.Parse()
	if err := harness.CheckWorkers(*workers); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
	if *headline && (*all || *fig != "") || *all && *fig != "" {
		fmt.Fprintln(os.Stderr, "figures: -all, -fig and -headline are mutually exclusive")
		os.Exit(2)
	}

	memo, err := campaign.OpenMemo(*storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	r := harness.NewRunnerWith(*np, *scale, memo)
	r.Check = *check

	var figs []harness.Figure
	var cells []harness.Cell
	switch {
	case *headline:
		cells = harness.HeadlineCells()
	case *all:
		figs = harness.Figures()
	case *fig != "":
		f, err := harness.FindFigure(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(2)
		}
		figs = []harness.Figure{f}
	default:
		flag.Usage()
		os.Exit(2)
	}
	for _, f := range figs {
		cells = append(cells, f.Cells()...)
	}
	for _, c := range cells {
		spec := harness.Spec{App: c.App, Version: c.Version, Platform: c.Platform, NumProcs: *np, Scale: *scale}
		err := spec.Validate()
		if err == nil {
			err = r.CheckScale(c.App)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(2)
		}
	}

	stopProfile, err := harness.StartCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	// Warm the memo cache in parallel; rendering below is serial cache
	// reads, so its bytes do not depend on -workers.
	r.RunParallel(*workers, cells)
	if err := stopProfile(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}

	if *headline {
		out, err := harness.HeadlineSpeedups(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
	for _, f := range figs {
		fmt.Printf("== %s: %s ==\n", f.ID, f.Title)
		out, err := f.Run(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	// Cache accounting goes to stderr so stdout stays byte-identical
	// regardless of -workers and -store.
	fmt.Fprintf(os.Stderr, "figures: cache: %s\n", r.CacheStats())

	if fails := r.FailedCells(); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "figures: %d experiment(s) failed:\n", len(fails))
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
}
