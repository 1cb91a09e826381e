// Command svmsim runs one application version on one platform model and
// prints the per-processor execution time breakdown, counters, and speedup
// versus the uniprocessor original — the tool used to reproduce any single
// data point from the paper.
//
// Usage:
//
//	svmsim -app lu -version 4da -platform svm -p 16 -scale 1.0 [-speedup] [-freecs]
//	svmsim -app lu -version 4d -platform svm -trace out.json   # Perfetto timeline
//	svmsim -app radix -json                                    # the canonical cell document
//
// An unknown app, version or platform, -p below 1, or a scale that is not
// positive is a usage error: exit 2 before anything is simulated, with the
// message on stderr only (also under -json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	_ "repro/internal/apps"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	app := flag.String("app", "lu", "application name")
	version := flag.String("version", "orig", "application version")
	plat := flag.String("platform", "svm", "platform preset: "+strings.Join(platform.AllPresets, ", "))
	np := flag.Int("p", 16, "number of simulated processors")
	scale := flag.Float64("scale", 1.0, "problem size scale factor")
	speedup := flag.Bool("speedup", false, "also compute speedup vs uniprocessor original")
	freecs := flag.Bool("freecs", false, "paper diagnostic: page faults inside critical sections are free")
	hot := flag.Bool("hot", false, "print the SVM hot-page / hot-lock profile (paper §6's performance tool; no effect with -json)")
	list := flag.Bool("list", false, "list applications and versions")
	traceOut := flag.String("trace", "", "write a Chrome/Perfetto trace of protocol events to this file")
	traceBuf := flag.Int("trace-buffer", 0, "keep the last N protocol events for post-mortem dumps on simulation errors")
	sample := flag.Uint64("sample", 0, "sample the breakdown every N cycles into the trace (default 100000 with -trace)")
	jsonOut := flag.Bool("json", false, "print the result as machine-readable JSON instead of tables")
	check := flag.Bool("check", false, "enable runtime invariant checking (scheduler, protocol state, accounting)")
	storeDir := flag.String("store", "", "persistent result store directory; a cached cell is loaded instead of simulated (not with -trace/-sample, nor with -hot outside -json)")
	flag.Parse()

	if *list {
		for _, name := range core.Apps() {
			a, _ := core.Lookup(name)
			fmt.Printf("%s:\n", name)
			for _, v := range a.Versions() {
				fmt.Printf("  %-10s %-5s %s\n", v.Name, v.Class, v.Desc)
			}
		}
		return
	}

	spec := harness.Spec{
		App: *app, Version: *version, Platform: *plat,
		NumProcs: *np, Scale: *scale, FreeCSFaults: *freecs,
		TraceRing: *traceBuf, Check: *check,
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "svmsim:", err)
		os.Exit(2)
	}
	var chrome *trace.Chrome
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "svmsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		chrome = trace.NewChrome(f)
		spec.TraceSink = chrome
		spec.SampleInterval = *sample
		if spec.SampleInterval == 0 {
			spec.SampleInterval = 100000
		}
	} else if *sample > 0 {
		spec.SampleInterval = *sample
	}

	memo, merr := campaign.OpenMemo(*storeDir)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "svmsim:", merr)
		os.Exit(1)
	}
	closeTrace := func() {
		if chrome != nil {
			if cerr := chrome.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "svmsim: writing trace:", cerr)
			}
		}
	}

	if *jsonOut {
		// The canonical single-cell document, a campaign's fingerprinted
		// bytes; a failed cell or baseline prints its structured error
		// document alongside the stderr message. The -hot profile is a
		// text report, so -hot has no effect here.
		body, err := harness.CellBody(memo, spec, *speedup)
		closeTrace()
		os.Stdout.Write(body)
		if err != nil {
			fmt.Fprintln(os.Stderr, "svmsim:", err)
			os.Exit(1)
		}
		return
	}

	// Execution path: -hot needs the profiling hook (never cached), and
	// trace-carrying specs bypass the cache inside Memo.Run; everything
	// else goes through the memo so -store can answer without simulating.
	var run *stats.Run
	var report string
	var err error
	if *hot {
		run, report, err = harness.ExecuteProfiled(spec)
	} else {
		run, err = memo.Run(spec)
	}
	closeTrace()
	if err != nil {
		fmt.Fprintln(os.Stderr, "svmsim:", err)
		os.Exit(1)
	}

	var spFactor float64
	if *speedup {
		base, err := memo.Run(spec.Baseline())
		if err != nil {
			fmt.Fprintln(os.Stderr, "svmsim:", err)
			os.Exit(1)
		}
		spFactor = float64(base.EndTime) / float64(run.EndTime)
	}

	fmt.Print(run.BreakdownTable())
	if report != "" {
		fmt.Print(report)
	}
	c := run.AggregateCounters()
	fmt.Printf("counters: reads=%d writes=%d faults=%d fetches=%d twins=%d diffs=%d inval=%d locks=%d remote=%d bus=%d tasks=%d stolen=%d\n",
		c.Reads, c.Writes, c.PageFaults, c.PageFetches, c.TwinsMade, c.DiffsCreated,
		c.Invalidations, c.LockAcquires, c.RemoteMisses, c.BusTransactions, c.TasksRun, c.TasksStolen)
	if *traceOut != "" {
		fmt.Printf("trace written to %s (load in https://ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}

	if *speedup {
		fmt.Printf("speedup vs uniprocessor %s/orig: %.2f\n", *app, spFactor)
	}
}
