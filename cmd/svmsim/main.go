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
//	svmsim -app raytrace -platform smp -hot                    # hot pages and locks, any preset
//
// -version defaults to the app's original version (splash for barnes, orig
// elsewhere). An unknown app, version or platform, -p below 1, a scale that
// is not positive, a negative -trace-buffer, or -sample without -trace is a
// usage error: exit 2 before anything is simulated, with the message on
// stderr only (also under -json).
//
// The observability flags (-trace, -sample, -hot, -trace-buffer) only
// install trace sinks: they never change the printed results or the -json
// document. When a run fails under -trace-buffer N, the error line on
// stderr is followed by the last N protocol events.
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
	"repro/internal/trace"
)

func main() {
	app := flag.String("app", "lu", "application name")
	version := flag.String("version", "", "application version (default: the app's original)")
	plat := flag.String("platform", "svm", "platform preset: "+strings.Join(platform.AllPresets, ", "))
	np := flag.Int("p", 16, "number of simulated processors")
	scale := flag.Float64("scale", 1.0, "problem size scale factor")
	speedup := flag.Bool("speedup", false, "also compute speedup vs uniprocessor original")
	freecs := flag.Bool("freecs", false, "paper diagnostic: page faults inside critical sections are free")
	hot := flag.Bool("hot", false, "print the hot-page / hot-lock profile (paper §6's performance tool; no effect with -json)")
	list := flag.Bool("list", false, "list applications and versions")
	traceOut := flag.String("trace", "", "write a Chrome/Perfetto trace of protocol events to this file")
	traceBuf := flag.Int("trace-buffer", 0, "print the last N protocol events on stderr when the run fails")
	sample := flag.Uint64("sample", 0, "sample the breakdown every N cycles into the trace (default 100000 with -trace)")
	jsonOut := flag.Bool("json", false, "print the result as machine-readable JSON instead of tables")
	check := flag.Bool("check", false, "enable runtime invariant checking (scheduler, protocol state, accounting)")
	storeDir := flag.String("store", "", "persistent result store directory; a cached cell is loaded instead of simulated (not with -trace, nor with -hot outside -json)")
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

	if *version == "" {
		*version = core.OrigVersion(*app)
	}
	spec := harness.Spec{
		App: *app, Version: *version, Platform: *plat,
		NumProcs: *np, Scale: *scale, FreeCSFaults: *freecs, Check: *check,
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "svmsim:", err)
		os.Exit(2)
	}
	if *traceBuf < 0 {
		fmt.Fprintf(os.Stderr, "svmsim: bad trace ring size %d (want 0 for none or a positive event count)\n", *traceBuf)
		os.Exit(2)
	}
	if *sample > 0 && *traceOut == "" {
		fmt.Fprintln(os.Stderr, "svmsim: -sample needs -trace (samples go into the trace file)")
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
		every := *sample
		if every == 0 {
			every = 100000
		}
		chrome = trace.NewChrome(f, every)
		spec.TraceSink = chrome
	}
	// A ring keeps the last -trace-buffer events for the post-mortem dump;
	// the run's error (and so the -json document) never includes them.
	var ring *trace.Ring
	if *traceBuf > 0 {
		ring = trace.NewRing(*traceBuf)
		spec.TraceSink = trace.Tee(spec.TraceSink, ring)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "svmsim:", err)
		if ring != nil {
			if evs := ring.Snapshot(); len(evs) > 0 {
				fmt.Fprintf(os.Stderr, "last %d protocol events:\n%s", len(evs), trace.FormatEvents(evs))
			}
		}
		os.Exit(1)
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
		body, _, err := harness.CellBody(memo, spec, *speedup)
		closeTrace()
		os.Stdout.Write(body)
		if err != nil {
			fail(err)
		}
		return
	}

	// -hot profiles through a counting trace sink; a spec carrying a sink
	// bypasses the memo and the store inside Memo.Run, so the profiled run
	// is always simulated.
	var counting *trace.Counting
	if *hot {
		counting = trace.NewCounting(spec.NumProcs)
		spec.TraceSink = trace.Tee(counting, spec.TraceSink)
	}
	run, err := memo.Run(spec)
	closeTrace()
	if err != nil {
		fail(err)
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
	if counting != nil {
		fmt.Print(counting.Report(10))
	}
	c := run.AggregateCounters()
	fmt.Printf("counters: reads=%d writes=%d faults=%d fetches=%d twins=%d diffs=%d inval=%d locks=%d remote=%d bus=%d tasks=%d stolen=%d\n",
		c.Reads, c.Writes, c.PageFaults, c.PageFetches, c.TwinsMade, c.DiffsCreated,
		c.Invalidations, c.LockAcquires, c.RemoteMisses, c.BusTransactions, c.TasksRun, c.TasksStolen)
	if *traceOut != "" {
		fmt.Printf("trace written to %s (load in https://ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}

	if *speedup {
		fmt.Printf("speedup vs uniprocessor %s/%s: %.2f\n", *app, spec.Baseline().Version, spFactor)
	}
}
