// Package trace is the protocol event-tracing layer of the simulator: a
// typed, low-overhead stream of the protocol events the paper's figures are
// made of — page faults and fetches, twins, diffs, write notices,
// invalidations at acquires, bus transactions, 2-/3-hop directory misses,
// lock request/grant/transfer, and barrier episodes — each stamped with the
// virtual time and processor it happened on.
//
// The simulation kernel owns a single Sink (possibly a Tee over several) and
// exposes a nil-checked Emit fast path, so with tracing off an event site
// costs one branch and zero allocations. The sink is the kernel's only
// observability hook: it never changes a simulated result, so a run's
// statistics and errors read the same with and without it. Three sinks
// cover the paper's §6 wished-for "performance debugging tool" roles:
//
//   - Counting: an aggregator of per-kind, per-page and per-lock totals,
//     rendered as the hot-page / hot-lock report of svmsim -hot on any
//     platform;
//   - Ring: a bounded buffer of the most recent events, which svmsim
//     -trace-buffer prints after a failed run's error so contained failures
//     are self-diagnosing;
//   - Chrome: a Chrome trace-event JSON exporter (one track per simulated
//     processor plus bus/NIC/directory resource tracks) loadable in Perfetto.
//
// A sink that implements Sampler with a nonzero SampleEvery additionally
// receives interval snapshots of the per-processor execution-time
// breakdown, so the paper's per-processor category bars can be rendered
// over time.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Kind classifies one protocol event.
type Kind uint8

// Event kinds. Processor kinds describe work attributed to a simulated
// processor; resource kinds (BusOccupy, NICOccupy, DirOccupy) describe
// occupancy episodes of a shared resource — the bus, a node's NIC/protocol
// handler, or a home directory controller.
const (
	// KindNone is the zero Kind; it is never emitted.
	KindNone Kind = iota

	// PageFault marks an access trapping on an invalid page (Arg: page).
	PageFault
	// PageFetch is a whole-page fetch from the home (Arg: page, Cost: wait).
	PageFetch
	// TwinCreate is a copy-on-first-write twin creation (Arg: page).
	TwinCreate
	// WriteTrap is a write-protection trap on the first write to a page in
	// an interval, at every writer including the home (Arg: page).
	WriteTrap
	// DiffCreate is a diff computed against a twin at a flush (Arg: page).
	DiffCreate
	// DiffApply is a diff applied at the home node (Arg: page).
	DiffApply
	// WriteNotice is one write notice logged at a flush (Arg: page).
	WriteNotice
	// Invalidate is one page invalidated at an acquire or barrier departure
	// (Arg: page).
	Invalidate

	// BusTxn is a snooping-bus transaction (Arg: line address).
	BusTxn
	// Miss2Hop is a directory miss satisfied by a remote home's memory
	// (Arg: line address).
	Miss2Hop
	// Miss3Hop is a directory miss forwarded to a dirty third node
	// (Arg: line address).
	Miss3Hop

	// LockRequest is the issue of a lock request (Arg: lock id).
	LockRequest
	// LockGrant is a completed lock acquisition; Cost is the full wait from
	// request to grant (Arg: lock id).
	LockGrant
	// LockTransfer marks a grant whose previous holder was a different
	// processor — a lock migration (Arg: lock id).
	LockTransfer
	// Barrier is one processor's whole barrier episode from arrival to
	// departure (Arg: barrier epoch, Cost: episode length).
	Barrier

	// BusOccupy is a bus occupancy episode (resource kind; Proc: bus id).
	BusOccupy
	// NICOccupy is a NIC/protocol-handler occupancy episode at a page's
	// home (resource kind; Proc: home domain — a node on svm, a cluster on
	// svmsmp; Arg: page).
	NICOccupy
	// DirOccupy is a home directory controller occupancy episode
	// (resource kind; Proc: home node).
	DirOccupy

	// NumKinds is the number of event kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	KindNone:     "None",
	PageFault:    "PageFault",
	PageFetch:    "PageFetch",
	TwinCreate:   "TwinCreate",
	WriteTrap:    "WriteTrap",
	DiffCreate:   "DiffCreate",
	DiffApply:    "DiffApply",
	WriteNotice:  "WriteNotice",
	Invalidate:   "Invalidate",
	BusTxn:       "BusTxn",
	Miss2Hop:     "Miss2Hop",
	Miss3Hop:     "Miss3Hop",
	LockRequest:  "LockRequest",
	LockGrant:    "LockGrant",
	LockTransfer: "LockTransfer",
	Barrier:      "Barrier",
	BusOccupy:    "BusOccupy",
	NICOccupy:    "NICOccupy",
	DirOccupy:    "DirOccupy",
}

// String returns the event kind's name.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ArgName names the Arg field of events of this kind ("page", "line",
// "lock", "epoch"), for rendering.
func (k Kind) ArgName() string {
	switch k {
	case BusTxn, Miss2Hop, Miss3Hop:
		return "line"
	case LockRequest, LockGrant, LockTransfer:
		return "lock"
	case Barrier:
		return "epoch"
	default:
		return "page"
	}
}

// Event is one protocol event. It is a compact value type (32 bytes) so the
// tracing-on path stays allocation-free: events are passed by value and
// sinks copy what they keep.
type Event struct {
	// Time is the virtual cycle the episode starts.
	Time uint64
	// Cost is the episode's length in cycles (0 for instantaneous marks).
	Cost uint64
	// Arg identifies the object: page, line address, lock id or barrier
	// epoch depending on Kind (see ArgName).
	Arg uint64
	// Proc is the processor the event is attributed to, or the resource
	// owner node for resource kinds.
	Proc int32
	// Kind classifies the event.
	Kind Kind
}

// String renders the event as one fixed-layout text line.
func (e Event) String() string {
	return fmt.Sprintf("%12d p%-3d %-12s %s=%d cost=%d",
		e.Time, e.Proc, e.Kind, e.Kind.ArgName(), e.Arg, e.Cost)
}

// Sink consumes the event stream. Emit is called under the kernel's
// single-active-goroutine discipline, so implementations need no locking,
// but a Sink must not be shared between concurrently running kernels.
type Sink interface {
	Emit(Event)
}

// Sampler is optionally implemented by sinks that want the kernel's interval
// time-series samples of the per-processor breakdown categories. The kernel
// samples every SampleEvery cycles of virtual time, and once more at the end
// of the run; a zero interval turns sampling off. procs is the kernel's live
// accounting slice: implementations must copy what they keep and must not
// retain the slice.
type Sampler interface {
	Sample(now uint64, procs []stats.Proc)
	SampleEvery() uint64
}

// multi fans events (and samples) out to several sinks.
type multi struct{ sinks []Sink }

func (m *multi) Emit(e Event) {
	for _, s := range m.sinks {
		s.Emit(e)
	}
}

// Sample implements Sampler, forwarding to every member that samples.
func (m *multi) Sample(now uint64, procs []stats.Proc) {
	for _, s := range m.sinks {
		if sp, ok := s.(Sampler); ok && sp.SampleEvery() > 0 {
			sp.Sample(now, procs)
		}
	}
}

// SampleEvery implements Sampler: the first member's nonzero interval, or 0
// when no member samples.
func (m *multi) SampleEvery() uint64 {
	for _, s := range m.sinks {
		if sp, ok := s.(Sampler); ok && sp.SampleEvery() > 0 {
			return sp.SampleEvery()
		}
	}
	return 0
}

// Tee combines sinks into one, dropping nils. It returns nil when no sink
// remains (tracing off) and the sink itself when only one does, preserving
// the nil-sink fast path and the single sink's Sampler implementation.
func Tee(sinks ...Sink) Sink {
	var out []Sink
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return &multi{sinks: out}
	}
}

// FormatEvents renders events one per line (oldest first), the post-mortem
// dump format svmsim prints after a failed run.
func FormatEvents(evs []Event) string {
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
