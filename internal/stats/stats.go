// Package stats defines the execution-time accounting used throughout the
// reproduction. The categories mirror the breakdowns in the paper's figures
// (Figure 3 caption): Compute Time, Data Wait Time, Lock Wait Time, Barrier
// Wait Time, Handler Compute Time and CPU-Cache Stall Time, all in simulated
// processor cycles.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Category is one component of a processor's execution time.
type Category int

// Breakdown categories, in the order they are reported.
const (
	// Compute is time spent executing application instructions.
	Compute Category = iota
	// DataWait is time spent waiting for data at remote faults/misses,
	// i.e. time waiting for communication.
	DataWait
	// LockWait is time spent waiting at locks, including the overhead of
	// the synchronization events themselves.
	LockWait
	// BarrierWait is time spent waiting at barriers, including the
	// overhead of the synchronization events themselves.
	BarrierWait
	// Handler is time spent in protocol processing on incoming or
	// outgoing transactions, including computing and applying diffs.
	Handler
	// CacheStall is time stalled waiting for local cache misses.
	CacheStall

	// NumCategories is the number of breakdown categories.
	NumCategories
)

// String returns the short label used in tables.
func (c Category) String() string {
	switch c {
	case Compute:
		return "Compute"
	case DataWait:
		return "DataWait"
	case LockWait:
		return "LockWait"
	case BarrierWait:
		return "Barrier"
	case Handler:
		return "Handler"
	case CacheStall:
		return "CacheStall"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Counters holds event counts a platform may record per processor. Zero
// fields simply mean the platform does not use that mechanism.
type Counters struct {
	Reads  uint64 // data read accesses issued
	Writes uint64 // data write accesses issued

	L1Misses uint64
	L2Misses uint64

	// SVM counters.
	PageFaults    uint64 // read or write faults taken on invalid pages
	PageFetches   uint64 // whole pages fetched from a home node
	TwinsMade     uint64 // copy-on-first-write twins created
	DiffsCreated  uint64 // diffs computed at releases/flushes
	DiffsApplied  uint64 // diffs applied at this node (as home)
	PagesServed   uint64 // page fetch requests served by this node (as home)
	Invalidations uint64 // pages invalidated at acquires/barriers

	// Directory / bus counters.
	LocalMisses     uint64 // L2 misses satisfied by local memory
	RemoteMisses    uint64 // L2 misses requiring remote/coherence transactions
	ThreeHopMisses  uint64
	BusTransactions uint64

	// Synchronization counters.
	LockAcquires   uint64
	RemoteLockMsgs uint64
	Barriers       uint64

	// Task-queue behaviour (recorded by applications).
	TasksRun    uint64
	TasksStolen uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	c.Reads += o.Reads
	c.Writes += o.Writes
	c.L1Misses += o.L1Misses
	c.L2Misses += o.L2Misses
	c.PageFaults += o.PageFaults
	c.PageFetches += o.PageFetches
	c.TwinsMade += o.TwinsMade
	c.DiffsCreated += o.DiffsCreated
	c.DiffsApplied += o.DiffsApplied
	c.PagesServed += o.PagesServed
	c.Invalidations += o.Invalidations
	c.LocalMisses += o.LocalMisses
	c.RemoteMisses += o.RemoteMisses
	c.ThreeHopMisses += o.ThreeHopMisses
	c.BusTransactions += o.BusTransactions
	c.LockAcquires += o.LockAcquires
	c.RemoteLockMsgs += o.RemoteLockMsgs
	c.Barriers += o.Barriers
	c.TasksRun += o.TasksRun
	c.TasksStolen += o.TasksStolen
}

// Proc is the per-processor accounting record.
type Proc struct {
	Cycles   [NumCategories]uint64
	Counters Counters
}

// Total returns the sum of all breakdown categories, i.e. the processor's
// busy+waiting execution time.
func (p *Proc) Total() uint64 {
	var t uint64
	for _, c := range p.Cycles {
		t += c
	}
	return t
}

// Run is the result of one simulated execution.
type Run struct {
	Name     string // e.g. "lu/orig on svm"
	NumProcs int
	Procs    []Proc
	// EndTime is the simulated completion time: the maximum virtual clock
	// over all processors at the final barrier/exit.
	EndTime uint64
	// PhaseTimes optionally records named phase durations (max over
	// processors), e.g. Barnes tree-build vs force computation.
	PhaseTimes map[string]uint64
	// Result is the application's result fingerprint
	// (core.Instance.Fingerprint), set by the harness once the run has
	// finished; 0 when nothing set it.
	Result uint64
}

// NewRun allocates a Run for p processors.
func NewRun(name string, p int) *Run {
	return &Run{Name: name, NumProcs: p, Procs: make([]Proc, p), PhaseTimes: map[string]uint64{}}
}

// Reset reinitializes r in place for a new run of p processors, reusing the
// per-processor records and phase table so a kernel that runs repeatedly
// allocates nothing per run. p must not exceed cap(r.Procs).
func (r *Run) Reset(name string, p int) {
	r.Name = name
	r.NumProcs = p
	r.EndTime = 0
	r.Result = 0
	r.Procs = r.Procs[:p]
	for i := range r.Procs {
		r.Procs[i] = Proc{}
	}
	clear(r.PhaseTimes)
}

// TotalCycles sums a category over all processors.
func (r *Run) TotalCycles(c Category) uint64 {
	var t uint64
	for i := range r.Procs {
		t += r.Procs[i].Cycles[c]
	}
	return t
}

// AggregateCounters sums counters over all processors.
func (r *Run) AggregateCounters() Counters {
	var t Counters
	for i := range r.Procs {
		t.Add(&r.Procs[i].Counters)
	}
	return t
}

// CheckAccounting verifies the accounting identity against the processors'
// final virtual clocks: every breakdown category sum must equal the clock
// it claims to explain (nothing double-charged, nothing dropped), no clock
// may exceed the recorded end time, and the end time must be attained.
func (r *Run) CheckAccounting(finalClocks []uint64) error {
	if len(finalClocks) != len(r.Procs) {
		return fmt.Errorf("accounting: %d final clocks for %d processors", len(finalClocks), len(r.Procs))
	}
	var maxClock uint64
	for i := range r.Procs {
		if t := r.Procs[i].Total(); t != finalClocks[i] {
			return fmt.Errorf("accounting: proc %d breakdown sums to %d cycles but its clock is %d (drift %+d)",
				i, t, finalClocks[i], int64(t)-int64(finalClocks[i]))
		}
		if finalClocks[i] > r.EndTime {
			return fmt.Errorf("accounting: proc %d clock %d exceeds end time %d", i, finalClocks[i], r.EndTime)
		}
		if finalClocks[i] > maxClock {
			maxClock = finalClocks[i]
		}
	}
	if len(r.Procs) > 0 && maxClock != r.EndTime {
		return fmt.Errorf("accounting: end time %d not attained by any processor (max clock %d)", r.EndTime, maxClock)
	}
	return nil
}

// RecordPhase accumulates a named phase duration (in cycles).
func (r *Run) RecordPhase(name string, cycles uint64) {
	if r.PhaseTimes == nil {
		r.PhaseTimes = map[string]uint64{}
	}
	r.PhaseTimes[name] += cycles
}

// BreakdownTable renders the per-processor execution-time breakdown as a
// fixed-width text table, one row per processor, one column per category —
// the textual equivalent of the paper's stacked-bar breakdown figures.
func (r *Run) BreakdownTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (P=%d, end=%d cycles)\n", r.Name, r.NumProcs, r.EndTime)
	fmt.Fprintf(&b, "%5s", "proc")
	for c := Category(0); c < NumCategories; c++ {
		fmt.Fprintf(&b, " %12s", c)
	}
	fmt.Fprintf(&b, " %12s\n", "Total")
	for i := range r.Procs {
		fmt.Fprintf(&b, "%5d", i)
		for c := Category(0); c < NumCategories; c++ {
			fmt.Fprintf(&b, " %12d", r.Procs[i].Cycles[c])
		}
		fmt.Fprintf(&b, " %12d\n", r.Procs[i].Total())
	}
	fmt.Fprintf(&b, "%5s", "sum")
	for c := Category(0); c < NumCategories; c++ {
		fmt.Fprintf(&b, " %12d", r.TotalCycles(c))
	}
	fmt.Fprintf(&b, " %12d\n", func() uint64 {
		var t uint64
		for i := range r.Procs {
			t += r.Procs[i].Total()
		}
		return t
	}())
	if len(r.PhaseTimes) > 0 {
		names := make([]string, 0, len(r.PhaseTimes))
		for n := range r.PhaseTimes {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "phase %-20s %12d\n", n, r.PhaseTimes[n])
		}
	}
	return b.String()
}

// Share returns the fraction of aggregate execution time spent in category c.
func (r *Run) Share(c Category) float64 {
	var all uint64
	for i := range r.Procs {
		all += r.Procs[i].Total()
	}
	if all == 0 {
		return 0
	}
	return float64(r.TotalCycles(c)) / float64(all)
}
