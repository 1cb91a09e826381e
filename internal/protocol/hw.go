package protocol

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Transport is the interconnect-model axis of a hardware-coherent machine:
// it prices the line transitions a LineEngine performs. SnoopBus and
// Directory are the two implementations; a limited-directory or CXL-style
// transport would slot in here without touching the state machine.
type Transport interface {
	// Reset clears per-run occupancy state before a run.
	Reset()
	// SlowLine performs one coherence transaction for member m of engine e.
	// gp is the global processor id, used for counters and per-processor
	// trace events; engines that span the whole machine pass m == gp.
	SlowLine(k *sim.Kernel, e *LineEngine, m, gp int, now, addr uint64, write bool) sim.AccessCost
	// LockGrant prices an uncontended hardware lock acquisition.
	LockGrant(k *sim.Kernel, now uint64, lock int) uint64
	// CheckOccupancy audits the transport's contended resources against
	// wall time; scope prefixes error messages.
	CheckOccupancy(scope string) error
}

// HW is a hardware-coherent platform assembled from the two line-grained
// policy axes: a coherence state machine (StateKind, realized by the
// LineEngine) and an interconnect model (Transport). The paper's "smp" is
// {MESI × SnoopBus} and its "dsm" is {MESI × Directory}; "smp-msi" and
// "dsm-msi" swap the state-machine axis while keeping everything else —
// new rows are configuration, not packages.
type HW struct {
	name string
	sts  StateKind
	cfg  cache.Config
	as   *mem.AddressSpace
	tr   Transport
	np   int
	k    *sim.Kernel
	// Eng is the per-run coherence state; exported for the invariant
	// checker's tests and for tools that inspect final cache state.
	Eng *LineEngine

	l2HitCost   uint64
	lockRelease uint64
	barrierHW   uint64
	barrierLeaf uint64
}

// NewBusMachine composes a snooping-bus machine: StateKind × the
// machine-wide SnoopBus. Memory is centralized, so the address space sizes
// the caches but places nothing.
func NewBusMachine(name string, sts StateKind, cfg cache.Config, as *mem.AddressSpace, p BusParams, np int) *HW {
	return &HW{
		name: name, sts: sts, cfg: cfg, as: as, np: np,
		tr:          &SnoopBus{P: p, Cluster: MachineBus},
		l2HitCost:   p.L2HitCost,
		lockRelease: p.LockRelease,
		barrierHW:   p.BarrierHW,
		barrierLeaf: p.BarrierLeaf,
	}
}

// NewDirMachine composes a full-map-directory machine: StateKind ×
// Directory, with homes taken from the address space's page placement.
func NewDirMachine(name string, sts StateKind, cfg cache.Config, as *mem.AddressSpace, p DirParams, np int) *HW {
	return &HW{
		name: name, sts: sts, cfg: cfg, as: as, np: np,
		tr:          &Directory{P: p, AS: as, NP: np},
		l2HitCost:   p.L2HitCost,
		lockRelease: p.LockRelease,
		barrierHW:   p.BarrierHW,
		barrierLeaf: p.BarrierLeaf,
	}
}

// Name implements sim.Platform.
func (w *HW) Name() string { return w.name }

// LineSize reports the coherence line size for range accesses.
func (w *HW) LineSize() int { return w.cfg.Line }

// Attach implements sim.Platform. The caches are sized here, to the address
// space's span as it stands when the run starts.
func (w *HW) Attach(k *sim.Kernel) {
	w.k = k
	w.Eng = NewLineEngine(w.sts, w.cfg, w.as.Span(), w.np)
	w.tr.Reset()
}

// FastAccess implements sim.Platform: cache hits with sufficient coherence
// rights are purely local. HitAccess fuses the probe and the access into one
// tag-array walk, refusing (mutating nothing) on a miss or a write without
// Modified/Exclusive rights.
func (w *HW) FastAccess(p int, now uint64, addr uint64, write bool) (uint64, bool) {
	lvl, _, ok := w.Eng.Caches[p].HitAccess(addr, write)
	if !ok {
		return 0, false // miss, or upgrade needed
	}
	if lvl == cache.L1Hit {
		return 0, true
	}
	return w.l2HitCost, true
}

// SlowAccess implements sim.Platform: one interconnect transaction.
func (w *HW) SlowAccess(p int, now uint64, addr uint64, write bool) sim.AccessCost {
	return w.tr.SlowLine(w.k, w.Eng, p, p, now, addr, write)
}

// LockRequest implements sim.Platform.
func (w *HW) LockRequest(p int, now uint64, lock int) uint64 { return 0 }

// LockGrant implements sim.Platform.
func (w *HW) LockGrant(p int, now uint64, lock int, prev int) uint64 {
	return w.tr.LockGrant(w.k, now, lock)
}

// LockRelease implements sim.Platform.
func (w *HW) LockRelease(p int, now uint64, lock int) (uint64, uint64, uint64) {
	return w.lockRelease, 0, 0
}

// BarrierArrive implements sim.Platform.
func (w *HW) BarrierArrive(p int, now uint64) (uint64, uint64) {
	return w.barrierLeaf, 0
}

// BarrierRelease implements sim.Platform.
func (w *HW) BarrierRelease(arrivals []uint64, manager int) uint64 {
	var m uint64
	for _, a := range arrivals {
		if a > m {
			m = a
		}
	}
	return m + w.barrierHW
}

// BarrierDepart implements sim.Platform.
func (w *HW) BarrierDepart(p int, releaseTime uint64) uint64 { return w.barrierLeaf / 3 }

// CheckInvariants implements sim.InvariantChecked: the engine's sharing
// invariants plus the transport's occupancy bounds — one implementation for
// every hardware-coherent composition instead of a copy per platform.
func (w *HW) CheckInvariants() error {
	if err := w.Eng.CheckInvariants(w.name); err != nil {
		return err
	}
	return w.tr.CheckOccupancy(w.name)
}

var (
	_ sim.Platform         = (*HW)(nil)
	_ sim.InvariantChecked = (*HW)(nil)
)
