package protocol

import (
	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MachineBus is the SnoopBus.Cluster value of a bus that spans the whole
// machine.
const MachineBus = -1

// SnoopBus prices coherence actions as transactions on one shared snooping
// bus: every miss or upgrade arbitrates for the bus and occupies it for a
// line transfer, so queueing delay under load is the contended resource.
//
// Cluster says which bus this is, and that one choice fixes its pricing and
// observability. The machine-wide bus (MachineBus, the paper's SGI
// Challenge) charges InvalPer per remote sharer on a write upgrade, plus a
// MemLat refetch when the writer's own copy was evicted, classifies every
// transaction as a local or remote miss, emits a BusTxn event per
// transaction and stamps BusOccupy with 0. A cluster bus of the two-level
// platform is short and its snoop responses overlap: an upgrade is one
// broadcast InvalPer and never a refetch, miss classification is left to
// the page layer above it, it emits no BusTxn, and BusOccupy carries the
// cluster id. bus_test.go pins both upgrade charges.
type SnoopBus struct {
	P       BusParams
	Cluster int
	Res     sim.Resource
}

// Reset implements Transport.
func (b *SnoopBus) Reset() { b.Res.Reset() }

// SlowLine implements Transport: one bus transaction for member m of engine
// e (gp is the global processor id for counters and per-processor trace
// events; on a machine-wide bus m == gp). Fills from memory are charged to
// CacheStall (centralized memory, "local cache miss"); cache-to-cache
// transfers and upgrades are communication, charged to DataWait. Bus
// queueing delay is charged with the transaction.
func (b *SnoopBus) SlowLine(k *sim.Kernel, e *LineEngine, m, gp int, now, addr uint64, write bool) sim.AccessCost {
	machine := b.Cluster == MachineBus
	h := e.Caches[m]
	la := h.LineOf(addr)
	le := e.Entry(la)
	c := k.Counters(gp)
	c.BusTransactions++

	occ := b.P.BusArb + b.P.BusXfer
	start := b.Res.Acquire(now, occ)
	wait := start - now + occ
	k.Emit(trace.BusOccupy, b.traceID(), start, la, occ)

	var lat uint64
	remote := false // a cache-to-cache transfer or an upgrade
	if write {
		switch {
		case le.Owner >= 0 && int(le.Owner) != m:
			lat = b.P.C2CLat
			e.Caches[le.Owner].SetState(addr, cache.Invalid)
			remote = true
		case le.Sharers&^(1<<uint(m)) != 0:
			n := e.InvalidateSharers(le, m, addr)
			lat = b.P.InvalPer
			if machine {
				lat = uint64(n) * b.P.InvalPer
				if !e.HasLine(m, addr) {
					lat += b.P.MemLat
				}
			}
			remote = true
		default:
			lat = b.P.MemLat
		}
		e.WriteClaim(m, addr, le)
	} else {
		if le.Owner >= 0 && int(le.Owner) != m {
			// Owner supplies the line (cache-to-cache) and downgrades.
			e.DowngradeOwner(le, addr)
			lat = b.P.C2CLat
			remote = true
		} else {
			lat = b.P.MemLat
		}
		e.ReadFill(m, addr, le)
	}
	var cost sim.AccessCost
	if remote {
		cost.DataWait = wait + lat
	} else {
		cost.CacheStall = wait + lat
	}
	if machine {
		if remote {
			c.RemoteMisses++
		} else {
			c.LocalMisses++
		}
		k.Emit(trace.BusTxn, gp, now, la, cost.Total())
	}
	return cost
}

// LockGrant implements Transport: an LL/SC or test&set acquisition — one
// bus transaction, "locks are cheap and are simply locks" (paper §4.2.3).
func (b *SnoopBus) LockGrant(k *sim.Kernel, now uint64, lock int) uint64 {
	start := b.Res.Acquire(now, b.P.BusArb)
	k.Emit(trace.BusOccupy, b.traceID(), start, uint64(lock), b.P.BusArb)
	return (start - now) + b.P.LockAcquire
}

// traceID is the processor field stamped on BusOccupy events: 0 for the
// machine-wide bus, the cluster id for a cluster bus.
func (b *SnoopBus) traceID() int { return max(b.Cluster, 0) }

// CheckOccupancy implements Transport.
func (b *SnoopBus) CheckOccupancy(scope string) error {
	return b.Res.CheckOccupancy(scope + ": bus")
}

var _ Transport = (*SnoopBus)(nil)
