package sim

import "fmt"

// Resource models a serially-occupied resource (a bus, a NIC, a node's
// protocol handler, a directory controller) with a busy-until clock.
// Requests processed in near virtual-time order queue behind one another,
// which is how the kernel reproduces the paper's contention effects
// ("the cost per page fault is significantly higher than the unloaded
// cost").
type Resource struct {
	busyUntil uint64
	occ       uint64 // total busy cycles ever charged
}

// Acquire reserves the resource for dur cycles starting no earlier than now;
// it returns the actual start time (>= now when the resource is busy).
func (r *Resource) Acquire(now, dur uint64) (start uint64) {
	start = now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + dur
	r.occ += dur
	return start
}

// CheckOccupancy verifies the occupancy-bounded-by-wall-time invariant.
// Reservations never overlap, so the total busy cycles charged can never
// exceed the busy-until time.
func (r *Resource) CheckOccupancy(name string) error {
	if r.occ > r.busyUntil {
		return fmt.Errorf("%s: occupancy %d exceeds busy-until time %d", name, r.occ, r.busyUntil)
	}
	return nil
}

// Reset clears the occupancy clock (between runs).
func (r *Resource) Reset() { r.busyUntil = 0; r.occ = 0 }

// Prevalidator is implemented by platforms that support warm-starting page
// copies at given nodes, modelling data already present after (untimed)
// initialization — e.g. Raytrace's processor 0 holding the scene pages it
// read in from the scene file (paper §4.2.3).
type Prevalidator interface {
	Prevalidate(addr uint64, n int, node int)
}

// WarmPages marks [addr, addr+n) as already present at node on platforms
// that support it; a no-op elsewhere.
func WarmPages(k *Kernel, addr uint64, n int, node int) {
	if pv, ok := k.plat.(Prevalidator); ok {
		pv.Prevalidate(addr, n, node)
	}
}
