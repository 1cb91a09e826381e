// Package svmsmp models the paper's §7 future-work platform: "SMP nodes
// connected by SVM" — clusters of hardware cache-coherent processors (PC
// SMPs) glued into one shared address space by a page-grained HLRC protocol
// over a Myrinet-class network. Within a cluster, coherence is at cache-line
// granularity over a snooping bus and costs tens of cycles; across clusters,
// coherence is at page granularity with twins, diffs and write notices kept
// per CLUSTER rather than per processor.
//
// The interesting questions the paper poses for this hierarchy — does
// intra-cluster sharing dodge the SVM tax, do cluster-grained twins cut
// protocol work, how do locks behave when the previous holder is a cluster
// mate — are all answerable with this model; see the TwoLevelBeatsFlatSVM
// row of the paper-claims table (repro_claims_test.go).
//
// Both protocol layers live in internal/protocol: one PageEngine whose
// coherence domains are the clusters, stacked on a {MESI × SnoopBus}
// LineEngine per cluster with broadcast upgrade accounting. This package is
// the composition: it maps processors to clusters and wires the page layer's
// "contents changed" callbacks down into the line layer.
package svmsmp

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// clusterSize is the number of processors per SMP node: the paper's
// envisioned PC-SMP node size.
const clusterSize = 4

// Platform is the two-level machine model.
type Platform struct {
	hlrc   protocol.HLRCParams // inter-cluster SVM costs
	bus    protocol.BusParams  // intra-cluster Challenge-class costs
	as     *mem.AddressSpace
	k      *sim.Kernel
	np, nc int
	// pageShift is log2(hlrc.PageSize); page-number extraction is on the
	// access fast path (see internal/svm).
	pageShift uint

	eng *protocol.PageEngine // inter-cluster HLRC, one domain per cluster
	// lineEng/buses are the intra-cluster layer, one {MESI × SnoopBus} pair
	// per cluster; caches is the flat per-processor view into the engines'
	// member caches (caches[p] == lineEng[clusterOf(p)].Caches[p%clusterSize]).
	lineEng []*protocol.LineEngine
	buses   []*protocol.SnoopBus
	caches  []*cache.Hierarchy

	lockCl map[int]int // lock -> cluster of last holder
}

// New creates a two-level platform for np processors grouped into clusters,
// with SVM costs across clusters and Challenge-class costs inside them.
func New(as *mem.AddressSpace, np int) *Platform {
	hlrc := protocol.DefaultHLRCParams()
	nc := (np + clusterSize - 1) / clusterSize
	s := &Platform{
		hlrc: hlrc, bus: protocol.DefaultBusParams(),
		as: as, np: np, nc: nc, pageShift: protocol.PageShift(hlrc.PageSize),
	}
	s.eng = protocol.NewPageEngine(protocol.PageConfig{
		Params: hlrc, Domains: nc, Host: s,
		Scope: "svmsmp", Noun: "cluster",
	})
	return s
}

// Name implements sim.Platform.
func (s *Platform) Name() string { return "svmsmp" }

// LineSize reports the intra-cluster coherence granularity.
func (s *Platform) LineSize() int { return protocol.ChallengeCache.Line }

func (s *Platform) clusterOf(p int) int { return p / clusterSize }

// HomeDomain implements protocol.PageHost: a page's home cluster is the
// cluster of its home processor.
func (s *Platform) HomeDomain(addr uint64) int {
	return s.clusterOf(s.as.Home(addr) % s.np)
}

// HandlerProc implements protocol.PageHost: protocol handlers run on a
// cluster's first processor.
func (s *Platform) HandlerProc(dom int) int { return dom * clusterSize }

// MemberRange implements protocol.PageHost.
func (s *Platform) MemberRange(dom int) (int, int) {
	lo := dom * clusterSize
	hi := lo + clusterSize
	if hi > s.np {
		hi = s.np
	}
	return lo, hi
}

// dropPageLines invalidates a page's lines in every member cache of cluster
// cid and drops the page's entries from the cluster's line table: the page
// contents changed (fetch or applied diff), so sharer/owner entries would
// otherwise survive for copies no cache holds.
func (s *Platform) dropPageLines(cid int, pg uint64) {
	base := pg * s.hlrc.PageSize
	for _, h := range s.lineEng[cid].Caches {
		h.InvalidateRange(base, int(s.hlrc.PageSize))
	}
	lineSz := uint64(s.LineSize())
	s.lineEng[cid].DropLines(base/lineSz, (base+s.hlrc.PageSize-1)/lineSz+1)
}

// PageArrived implements protocol.PageHost.
func (s *Platform) PageArrived(dom int, pg uint64) { s.dropPageLines(dom, pg) }

// DiffApplied implements protocol.PageHost.
func (s *Platform) DiffApplied(home int, pg uint64) { s.dropPageLines(home, pg) }

// Attach implements sim.Platform.
func (s *Platform) Attach(k *sim.Kernel) {
	s.k = k
	span := s.as.Span()
	npages := int(span >> s.pageShift)
	s.eng.Init(k, npages)
	s.caches = make([]*cache.Hierarchy, s.np)
	s.lineEng = make([]*protocol.LineEngine, s.nc)
	s.buses = make([]*protocol.SnoopBus, s.nc)
	for c := 0; c < s.nc; c++ {
		members := clusterSize
		if rest := s.np - c*clusterSize; rest < members {
			members = rest
		}
		s.lineEng[c] = protocol.NewLineEngine(protocol.MESI, protocol.ChallengeCache, span, members)
		for _, h := range s.lineEng[c].Caches {
			h.FilterPages(int(s.hlrc.PageSize), npages)
		}
		// Short intra-cluster buses: broadcast upgrade accounting, no
		// per-transaction miss classification (the page layer above owns
		// miss accounting), BusOccupy stamped with the cluster id.
		s.buses[c] = &protocol.SnoopBus{
			P:       s.bus,
			Upgrade: protocol.UpgradeBroadcast,
			Acct:    protocol.BusAccounting{TraceID: c},
		}
		copy(s.caches[c*clusterSize:], s.lineEng[c].Caches)
	}
	s.lockCl = map[int]int{}
}

// Prevalidate implements sim.Prevalidator at cluster granularity.
func (s *Platform) Prevalidate(addr uint64, nbytes int, nd int) {
	s.eng.Prevalidate(addr, nbytes, s.clusterOf(nd))
}

// FastAccess implements sim.Platform: the page must be valid at the cluster
// (and cluster-dirty for writes), then intra-cluster MESI applies.
func (s *Platform) FastAccess(p int, now uint64, addr uint64, write bool) (uint64, bool) {
	d := s.eng.Doms[s.clusterOf(p)]
	pg := addr >> s.pageShift
	if !d.Valid[pg] {
		return 0, false
	}
	if write && !d.Dirty[pg] {
		return 0, false
	}
	lvl, _, ok := s.caches[p].HitAccess(addr, write)
	if !ok {
		return 0, false
	}
	if lvl == cache.L1Hit {
		return 0, true
	}
	return s.bus.L2HitCost, true
}

// SlowAccess implements sim.Platform: inter-cluster page faults and write
// traps first (one trap + twin per CLUSTER per interval — the two-level
// hierarchy's big saving over plain SVM), then an intra-cluster bus
// transaction for the line.
func (s *Platform) SlowAccess(p int, now uint64, addr uint64, write bool) sim.AccessCost {
	cid := s.clusterOf(p)
	d := s.eng.Doms[cid]
	pg := addr >> s.pageShift
	var cost sim.AccessCost
	if !d.Valid[pg] {
		cost.DataWait += s.eng.Fault(p, cid, now, addr)
	}
	if write && !d.Dirty[pg] {
		cost.Handler += s.eng.Trap(p, cid, now, addr)
	}
	bc := s.buses[cid].SlowLine(s.k, s.lineEng[cid], p%clusterSize, p, now, addr, write)
	cost.CacheStall += bc.CacheStall
	cost.DataWait += bc.DataWait
	cost.Handler += bc.Handler
	return cost
}

// LockRequest implements sim.Platform: free within a cluster, a message
// across clusters.
func (s *Platform) LockRequest(p int, now uint64, lock int) uint64 {
	if last, ok := s.lockCl[lock]; ok && last == s.clusterOf(p) {
		return 0
	}
	return s.hlrc.MsgSend + s.hlrc.NetLatency
}

// LockGrant implements sim.Platform: an intra-cluster handoff is a hardware
// lock; an inter-cluster handoff pays SVM messaging plus write-notice
// invalidations at cluster granularity.
func (s *Platform) LockGrant(p int, now uint64, lock int, prevHolder int) uint64 {
	cid := s.clusterOf(p)
	sameCluster := prevHolder >= 0 && s.clusterOf(prevHolder) == cid
	var cost uint64
	if sameCluster {
		cost = s.bus.LockAcquire
	} else {
		cost = s.hlrc.NetLatency + s.hlrc.MsgRecv
		if prevHolder >= 0 {
			cost += s.hlrc.MsgSend + s.hlrc.NetLatency + s.hlrc.MsgRecv
		}
	}
	cost += s.eng.AcquireApply(lock, cid, p, now)
	s.lockCl[lock] = cid
	return cost
}

// LockRelease implements sim.Platform.
func (s *Platform) LockRelease(p int, now uint64, lock int) (uint64, uint64, uint64) {
	cid := s.clusterOf(p)
	handler := s.eng.Flush(cid, p, now)
	s.eng.SaveLockVC(lock, cid)
	return s.bus.LockRelease, handler, 0
}

// BarrierArrive implements sim.Platform: gather on the cluster bus, then one
// message per cluster to the manager.
func (s *Platform) BarrierArrive(p int, now uint64) (uint64, uint64) {
	handler := s.eng.Flush(s.clusterOf(p), p, now)
	return s.bus.BarrierLeaf + s.hlrc.MsgSend/clusterSize + s.hlrc.NetLatency/2, handler
}

// BarrierRelease implements sim.Platform: the manager handles one arrival
// per CLUSTER, not per processor.
func (s *Platform) BarrierRelease(arrivals []uint64, manager int) uint64 {
	return s.eng.ReleaseWork(arrivals, manager, s.nc)
}

// BarrierDepart implements sim.Platform.
func (s *Platform) BarrierDepart(p int, releaseTime uint64) uint64 {
	return s.bus.BarrierLeaf/3 + s.eng.DepartApply(s.clusterOf(p), p, releaseTime)
}

// CheckInvariants implements sim.InvariantChecked: the page engine's HLRC
// invariants at cluster granularity (twin/diff balance aggregates over each
// cluster's processors, since the write trap lands on the accessing
// processor while the flush lands on whichever cluster mate releases), plus
// each cluster's bus occupancy and line-table/cache agreement.
func (s *Platform) CheckInvariants() error {
	if err := s.eng.CheckInvariants(); err != nil {
		return err
	}
	for cid := range s.lineEng {
		if err := s.buses[cid].CheckOccupancy(fmt.Sprintf("svmsmp: cluster %d", cid)); err != nil {
			return err
		}
		if err := s.lineEng[cid].CheckInvariants(fmt.Sprintf("svmsmp: cluster %d", cid)); err != nil {
			return err
		}
	}
	return nil
}

var (
	_ sim.Platform         = (*Platform)(nil)
	_ sim.Prevalidator     = (*Platform)(nil)
	_ sim.InvariantChecked = (*Platform)(nil)
	_ protocol.PageHost    = (*Platform)(nil)
)
