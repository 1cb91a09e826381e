package protocol

import (
	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/trace"
)

// UpgradeAccounting selects how a snooping bus prices the invalidation of
// remote sharers on a write upgrade. The two values are the two accountings
// the hand-cloned platforms had silently diverged into (the Challenge
// machine charged n × InvalPer while internal/svmsmp charged a single
// Bus.InvalPer); the extraction keeps both as an explicit, documented
// modeling parameter — see the pinned regressions in bus_test.go.
type UpgradeAccounting int

const (
	// UpgradePerSharer charges InvalPer per remote sharer invalidated, plus
	// a MemLat refetch when the requester no longer holds the line itself
	// (its copy was evicted between the read and the write). This models a
	// machine-wide bus where each snooping cache acknowledges in turn — the
	// paper's SGI Challenge accounting.
	UpgradePerSharer UpgradeAccounting = iota
	// UpgradeBroadcast charges a single InvalPer regardless of sharer count
	// and never a refetch: the invalidation is one broadcast on a short
	// intra-cluster bus whose snoop responses overlap, appropriate for the
	// few-processor SMP nodes of the two-level hierarchy.
	UpgradeBroadcast
)

// BusAccounting selects which counters and trace events a bus transaction
// produces — the observability differences between the machine-wide smp bus
// and the per-cluster buses of the two-level platform, made explicit.
type BusAccounting struct {
	// ClassifyMisses updates LocalMisses/RemoteMisses per transaction (the
	// machine-wide bus does; the intra-cluster buses leave miss
	// classification to the page layer above them).
	ClassifyMisses bool
	// EmitTxn emits a trace.BusTxn event per transaction with its total
	// cost.
	EmitTxn bool
	// TraceID is the processor field stamped on BusOccupy events: 0 for the
	// single machine-wide bus, the cluster id for per-cluster buses.
	TraceID int
}

// SnoopBus prices coherence actions as transactions on one shared snooping
// bus: every miss or upgrade arbitrates for the bus and occupies it for a
// line transfer, so queueing delay under load is the contended resource.
type SnoopBus struct {
	P       BusParams
	Upgrade UpgradeAccounting
	Acct    BusAccounting
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
	h := e.Caches[m]
	la := h.LineOf(addr)
	le := e.Entry(la)
	c := k.Counters(gp)
	c.BusTransactions++
	var cost sim.AccessCost

	occ := b.P.BusArb + b.P.BusXfer
	start := b.Res.Acquire(now, occ)
	wait := start - now + occ
	k.Emit(trace.BusOccupy, b.Acct.TraceID, start, la, occ)

	if write {
		remoteOwner := le.Owner >= 0 && int(le.Owner) != m
		remoteSharers := le.Sharers&^(1<<uint(m)) != 0
		var lat uint64
		comm := false
		switch {
		case remoteOwner:
			lat = b.P.C2CLat
			e.Caches[le.Owner].SetState(addr, cache.Invalid)
			comm = true
		case remoteSharers:
			n := e.InvalidateSharers(le, m, addr)
			if b.Upgrade == UpgradePerSharer {
				lat = uint64(n) * b.P.InvalPer
				if !e.HasLine(m, addr) {
					lat += b.P.MemLat
				}
			} else {
				lat = b.P.InvalPer
			}
			comm = true
		default:
			lat = b.P.MemLat
		}
		e.WriteClaim(m, addr, le)
		if comm {
			cost.DataWait += wait + lat
			if b.Acct.ClassifyMisses {
				c.RemoteMisses++
			}
		} else {
			cost.CacheStall += wait + lat
			if b.Acct.ClassifyMisses {
				c.LocalMisses++
			}
		}
	} else {
		if le.Owner >= 0 && int(le.Owner) != m {
			// Owner supplies the line (cache-to-cache) and downgrades.
			e.DowngradeOwner(le, addr)
			cost.DataWait += wait + b.P.C2CLat
			if b.Acct.ClassifyMisses {
				c.RemoteMisses++
			}
		} else {
			cost.CacheStall += wait + b.P.MemLat
			if b.Acct.ClassifyMisses {
				c.LocalMisses++
			}
		}
		e.ReadFill(m, addr, le)
	}
	if b.Acct.EmitTxn {
		k.Emit(trace.BusTxn, gp, now, la, cost.Total())
	}
	return cost
}

// LockGrant implements Transport: an LL/SC or test&set acquisition — one
// bus transaction, "locks are cheap and are simply locks" (paper §4.2.3).
func (b *SnoopBus) LockGrant(k *sim.Kernel, now uint64, lock int) uint64 {
	start := b.Res.Acquire(now, b.P.BusArb)
	k.Emit(trace.BusOccupy, b.Acct.TraceID, start, uint64(lock), b.P.BusArb)
	return (start - now) + b.P.LockAcquire
}

// CheckOccupancy implements Transport.
func (b *SnoopBus) CheckOccupancy(scope string) error {
	return b.Res.CheckOccupancy(scope + ": bus")
}

var _ Transport = (*SnoopBus)(nil)
