// Package repro reproduces Jiang, Shan & Singh, "Application Restructuring
// and Performance Portability on Shared Virtual Memory and Hardware-Coherent
// Multiprocessors" (PPoPP 1997).
//
// It provides execution-driven simulators for the paper's three shared
// address space platforms — page-grained shared virtual memory running a
// home-based lazy release consistency protocol ("svm"), a bus-based snooping
// hardware cache-coherent SMP ("smp"), and a directory-based CC-NUMA machine
// ("dsm") — together with from-scratch reimplementations of the seven
// applications in every restructured version the paper studies (padding &
// alignment, data-structure reorganization, and algorithmic change).
//
// This package is the public facade: it re-exports the experiment runner so
// examples and downstream users can run any (application, version, platform)
// combination, read the paper's execution-time breakdowns, and regenerate
// every figure. See DESIGN.md for the system inventory and EXPERIMENTS.md
// for paper-vs-measured results.
package repro

import (
	"slices"

	_ "repro/internal/apps" // register all seven applications
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/stats"
)

// Spec names one simulated execution: an application version on a platform.
type Spec = harness.Spec

// Run is the result of a simulated execution: per-processor execution time
// breakdowns (Compute, Data Wait, Lock Wait, Barrier Wait, Handler Compute,
// CPU-Cache Stall), counters, and the completion time.
type Run = stats.Run

// Runner executes experiments with memoized uniprocessor baselines, so
// speedups follow the paper's convention (T1 of the original version over Tp
// of the optimized version). A Runner is safe for concurrent use: distinct
// experiments execute once (singleflight) and whole matrices can be
// pre-executed by a bounded worker pool with RunParallel, with per-cell
// failures contained as memoized errors instead of process crashes.
type Runner = harness.Runner

// Cell names one (application, version, platform) experiment of a matrix
// for Runner.RunParallel.
type Cell = harness.Cell

// Figure is one regenerable figure/table from the paper.
type Figure = harness.Figure

// Execute runs one experiment and verifies the computed result against the
// application's sequential reference.
func Execute(s Spec) (*Run, error) { return harness.Execute(s) }

// NewRunner creates a Runner for np processors; scale multiplies each
// application's base problem size.
func NewRunner(np int, scale float64) *Runner { return harness.NewRunner(np, scale) }

// Figures lists every regenerable figure in paper order.
func Figures() []Figure { return harness.Figures() }

// Apps lists the registered applications, the paper's seven plus the
// irregular extension workloads (kvstore, bfs, pipeline).
func Apps() []string { return core.Apps() }

// PaperApps lists only the paper's applications — the set the figures and
// the paper-claims suite reproduce. Extension workloads registered via
// core.RegisterExtension are excluded.
func PaperApps() []string { return core.PaperApps() }

// Versions lists the restructured versions of an application, original
// first, with their optimization classes.
func Versions(app string) ([]core.Version, error) {
	a, err := core.Lookup(app)
	if err != nil {
		return nil, err
	}
	return a.Versions(), nil
}

// Platforms lists the paper's three machine models, in paper order. The
// slice is a copy: callers may modify it freely.
func Platforms() []string { return slices.Clone(platform.Names) }
