// Package harness executes experiments: it lays out an application version
// in a fresh simulated address space, binds the chosen platform model, runs
// the SPMD body, verifies the computed result, and computes speedups with
// the paper's convention — the speedup of any optimized version is the
// simulated uniprocessor time of the ORIGINAL version divided by the
// P-processor time of the optimized version (§2.1.3).
package harness

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Spec names one simulated execution.
type Spec struct {
	App      string
	Version  string
	Platform string
	NumProcs int
	Scale    float64
	// FreeCSFaults enables the paper's critical-section diagnostic.
	FreeCSFaults bool
	// SkipVerify skips result verification (benchmarks re-running a
	// version many times).
	SkipVerify bool
	// Check enables the kernel's runtime invariant checker (scheduler
	// monotonicity, platform protocol sweeps, accounting identity); see
	// sim.Config.Check. Also forced on process-wide by REPRO_CHECK=1.
	Check bool
	// Quantum overrides the scheduler's slice length in cycles (0 keeps the
	// kernel default). Simulated results are quantum-invariant — the quantum
	// decides only how often a processor yields between synchronization
	// points, never what it charges (pinned by the quantum-edge determinism
	// test) — but it is still part of the memo key out of caution.
	Quantum uint64

	// TraceSink, when non-nil, receives every protocol event of the run
	// (see internal/trace). TraceRing, when positive, keeps the last N
	// events for post-mortem dumps in contained simulation errors.
	// SampleInterval, when positive, samples the per-processor breakdown
	// every that many virtual cycles into a Sampler sink. These are
	// observability hooks, not behavior: they never affect simulated
	// timing, and they are deliberately excluded from memoKey — Runner
	// never sets them, only direct Execute calls do.
	TraceSink      trace.Sink
	TraceRing      int
	SampleInterval uint64
}

// label is the human-readable run name shown in tables and error messages.
func (s Spec) label() string {
	return fmt.Sprintf("%s/%s on %s (P=%d)", s.App, s.Version, s.Platform, s.NumProcs)
}

// memoKey covers every behavior-affecting field, so a cached result can
// never alias a spec that would execute differently (label omits Scale and
// the diagnostic flags for readability, which made it unsafe as a cache
// key: a FreeCSFaults run would have aliased a normal one).
func (s Spec) memoKey() string {
	return fmt.Sprintf("%s/%s@%s p=%d scale=%g freecs=%v noverify=%v check=%v quantum=%d",
		s.App, s.Version, s.Platform, s.NumProcs, s.Scale, s.FreeCSFaults, s.SkipVerify, s.Check, s.Quantum)
}

// MemoKey is the cache key Memo.Run would use for s, with defaults
// applied — the string that names s's cell in the memo, the persistent
// store, and a campaign journal. Two specs that execute identically (one
// spelled with defaults, one without) share a MemoKey, so they share a
// cache entry.
func (s Spec) MemoKey() string { return s.withDefaults().memoKey() }

// Baseline is the spec of s's speedup baseline, the paper's convention:
// the application's original version on one processor, on the same
// platform, scale, checking and quantum. It drops the FreeCSFaults
// diagnostic and every observability hook, so the baseline run never
// writes into s's trace.
func (s Spec) Baseline() Spec {
	return Spec{
		App: s.App, Version: core.OrigVersion(s.App), Platform: s.Platform,
		NumProcs: 1, Scale: s.Scale, Check: s.Check, Quantum: s.Quantum,
	}
}

// envCheck force-enables invariant checking for the whole process (the CI
// checker leg). Read once: a value that flipped mid-process would let a
// checked result alias an unchecked memo key.
var envCheck = os.Getenv("REPRO_CHECK") != ""

func (s Spec) withDefaults() Spec {
	if s.NumProcs == 0 {
		s.NumProcs = 16
	}
	if s.Scale == 0 {
		s.Scale = 1.0
	}
	if s.Version == "" {
		s.Version = "orig"
	}
	if s.Platform == "" {
		s.Platform = "svm"
	}
	if envCheck {
		s.Check = true
	}
	return s
}

// Validate reports the first reason s cannot run as given: an unknown app,
// version or platform preset, a processor count below 1, or a scale that is
// not a positive finite number. It applies no defaults, so a command-line
// -p 0 or -scale 0 is rejected rather than silently run as 16 processors
// or scale 1. Commands call it before simulating anything; campaign spec
// validation calls it for every cell of the matrix.
func (s Spec) Validate() error {
	a, err := core.Lookup(s.App)
	if err != nil {
		return err
	}
	if _, err := core.FindVersion(a, s.Version); err != nil {
		return err
	}
	if !platform.Known(s.Platform) {
		return fmt.Errorf("unknown platform %q", s.Platform)
	}
	if s.NumProcs < 1 {
		return fmt.Errorf("bad processor count %d (want a positive integer)", s.NumProcs)
	}
	if !(s.Scale > 0) || math.IsInf(s.Scale, 1) {
		return fmt.Errorf("bad scale %g (want a positive number)", s.Scale)
	}
	return nil
}

// VerifyError wraps a result-verification failure, so renderers and the
// differential harness can classify it apart from contained simulation
// errors (panics, deadlocks, invariant violations).
type VerifyError struct{ Err error }

func (e *VerifyError) Error() string { return e.Err.Error() }
func (e *VerifyError) Unwrap() error { return e.Err }

// Execute runs one experiment and returns its statistics.
func Execute(s Spec) (*stats.Run, error) {
	run, _, err := execute(s)
	return run, err
}

// ExecuteFingerprint runs one experiment and additionally returns the
// instance's result fingerprint. The determinism harness compares
// fingerprints across repetitions, platforms and processor counts.
func ExecuteFingerprint(s Spec) (run *stats.Run, fp uint64, err error) {
	run, inst, err := execute(s)
	if err != nil {
		return run, 0, err
	}
	return run, inst.Fingerprint(), nil
}

// buildInstance contains panics from application Build (layout constraints
// like 4-D block dimensions that do not divide for the chosen processor
// count and scale) as errors, so a bad cell renders as an error row instead
// of crashing the whole figure run.
func buildInstance(a core.App, version string, scale float64, as *mem.AddressSpace, np int) (inst core.Instance, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("build panic: %v", r)
		}
	}()
	return a.Build(version, scale, as, np)
}

// execute runs one cell under pprof labels naming it (app, version,
// platform, procs), so one host CPU profile of many cells splits by cell
// with `go tool pprof -tagfocus`. The labels touch no simulated state.
func execute(s Spec) (run *stats.Run, inst core.Instance, err error) {
	s = s.withDefaults()
	labels := pprof.Labels("app", s.App, "version", s.Version, "platform", s.Platform, "procs", strconv.Itoa(s.NumProcs))
	pprof.Do(context.Background(), labels, func(context.Context) {
		run, inst, err = executeCell(s)
	})
	return run, inst, err
}

func executeCell(s Spec) (*stats.Run, core.Instance, error) {
	a, err := core.Lookup(s.App)
	if err != nil {
		return nil, nil, err
	}
	if _, err := core.FindVersion(a, s.Version); err != nil {
		return nil, nil, err
	}
	as := mem.NewAddressSpace(platform.PageSize, s.NumProcs)
	inst, err := buildInstance(a, s.Version, s.Scale, as, s.NumProcs)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", s.label(), err)
	}
	pl, err := platform.Make(s.Platform, as, s.NumProcs)
	if err != nil {
		return nil, nil, err
	}
	k := sim.New(pl, sim.Config{
		NumProcs:       s.NumProcs,
		BarrierManager: sim.AutoBarrierManager,
		FreeCSFaults:   s.FreeCSFaults,
		Check:          s.Check,
		Quantum:        s.Quantum,
	})
	if s.TraceSink != nil {
		k.SetTraceSink(s.TraceSink)
	}
	if s.TraceRing > 0 {
		k.SetTraceRing(s.TraceRing)
	}
	if s.SampleInterval > 0 {
		k.SetSampleInterval(s.SampleInterval)
	}
	run, err := k.RunErr(s.label(), inst.Body)
	if err != nil {
		// Panics, deadlocks and invariant violations inside the simulation
		// come back as structured errors; label the cell and pass them
		// through so a figure run can print an error row instead of
		// crashing.
		return nil, nil, fmt.Errorf("%s: %w", s.label(), err)
	}
	if !s.SkipVerify {
		if err := inst.Verify(); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.label(), &VerifyError{Err: err})
		}
	}
	return run, inst, nil
}

// Runner executes experiments with a cache of uniprocessor baselines. Scale
// is a multiplier applied on top of each application's BaseScale. A Runner
// is safe for concurrent use: each distinct experiment executes exactly once
// (singleflight — concurrent requests for the same cell wait for the first),
// and failures are memoized alongside results so a bad cell is not retried.
//
// All execution flows through a Memo, which can carry a persistent store
// tier (figures/sweep/svmsim -store, campaign) and can be shared between runners
// so they cache and coalesce together.
type Runner struct {
	NumProcs int
	Scale    float64
	// Check enables the runtime invariant checker for every cell this
	// runner executes (figures -check). Set before the first Run call:
	// it is part of the memo key.
	Check bool

	memo *Memo
}

// memoEntry is one singleflight slot: the goroutine that claims a key
// executes the experiment and closes done; every other requester waits.
type memoEntry struct {
	done chan struct{}
	run  *stats.Run
	err  error
}

// NewRunner creates a Runner for the given processor count and scale, with
// a private in-memory cache.
func NewRunner(np int, scale float64) *Runner {
	return NewRunnerWith(np, scale, NewMemo(nil))
}

// NewRunnerWith creates a Runner over an existing Memo, sharing its cache
// (and persistent store, if any) with every other user of that memo.
func NewRunnerWith(np int, scale float64, memo *Memo) *Runner {
	return &Runner{NumProcs: np, Scale: scale, memo: memo}
}

// CacheStats returns the cumulative cache counters of this runner's memo
// (shared with other runners over the same memo).
func (r *Runner) CacheStats() CacheStats { return r.memo.Stats() }

// Run executes (and memoizes) an experiment for this runner's processor
// count and scale.
func (r *Runner) Run(app, version, plat string) (*stats.Run, error) {
	return r.memo.Run(r.spec(app, version, plat))
}

// spec is the runner's spec for one cell.
func (r *Runner) spec(app, version, plat string) Spec {
	return Spec{App: app, Version: version, Platform: plat, NumProcs: r.NumProcs, Scale: r.scaleFor(app), Check: r.Check}
}

// Baseline returns the uniprocessor execution time of the original version
// of app on plat (the paper's speedup denominator source). Baselines are
// memoized like any other spec, so a parallel figure run executes each one
// exactly once no matter how many cells divide by it.
func (r *Runner) Baseline(app, plat string) (uint64, error) {
	run, err := r.memo.Run(r.spec(app, "", plat).Baseline())
	if err != nil {
		return 0, err
	}
	return run.EndTime, nil
}

// FailedCells returns a sorted, one-line-per-cell description of every
// memoized execution that ended in an error — the experiments a figure run
// rendered as error rows (uniprocessor baselines included, as their P=1
// specs). Empty means every cell succeeded.
func (r *Runner) FailedCells() []string { return r.memo.Failed() }

// FirstLine truncates multi-line error text (deadlock state dumps) to its
// first line for one-row-per-cell reports and journal entries.
func FirstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " ..."
	}
	return s
}

// Speedup returns T1(orig)/Tp(version) on the given platform.
func (r *Runner) Speedup(app, version, plat string) (float64, error) {
	t1, err := r.Baseline(app, plat)
	if err != nil {
		return 0, err
	}
	run, err := r.Run(app, version, plat)
	if err != nil {
		return 0, err
	}
	if run.EndTime == 0 {
		return 0, fmt.Errorf("harness: zero execution time for %s/%s on %s", app, version, plat)
	}
	return float64(t1) / float64(run.EndTime), nil
}

// StartCPUProfile starts a host CPU profile of the process, written to
// path, and returns the function that stops it and closes the file. An
// empty path profiles nothing.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
