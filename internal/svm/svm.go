// Package svm models the paper's shared virtual memory platform: an
// all-software home-based lazy release consistency (HLRC) protocol over a
// Myrinet-like commodity interconnect (paper §2.1.1). Nodes are 200 MHz
// 1-CPI processors with an 8 KB direct-mapped write-through L1 and a 512 KB
// 2-way L2 (32 B lines); pages are 4 KB; the memory bus peaks at 400 MB/s and
// the I/O bus carrying network packets at 100 MB/s.
//
// Protocol mechanics follow HLRC: every page has a home; writers make a twin
// on the first write in an interval, compute diffs against the twin at
// releases, and propagate diffs to the home (only); acquirers receive write
// notices and lazily invalidate their stale copies; a fault after a causally
// related acquire fetches the whole page from the home.
//
// The protocol engine itself lives in internal/protocol (PageEngine); this
// package composes it with one coherence domain per node and the paper's
// node cache hierarchy.
package svm

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// CacheConfig is the paper's SVM node cache hierarchy.
var CacheConfig = cache.Config{
	L1Size: 8 << 10,
	L2Size: 512 << 10, L2Assoc: 2,
	Line: 32,
}

// Platform is the HLRC shared-virtual-memory machine: a protocol.PageEngine
// with one coherence domain per node, composed with each node's private
// (coherence-irrelevant) cache hierarchy. The HLRC state machine itself lives
// in internal/protocol; this package wires it to flat node-grained homes and
// keeps the existing API for harness specs, figure cells and memo keys.
type Platform struct {
	P  protocol.HLRCParams
	as *mem.AddressSpace
	k  *sim.Kernel
	np int
	// pageShift is log2(P.PageSize): page-number extraction sits on the
	// access fast path of every simulated reference, and a shift avoids a
	// 64-bit divide by a non-constant there. levelCost maps a cache.Level
	// to its stall cycles, replacing a switch on the same fast path.
	pageShift uint
	levelCost [3]uint64

	eng    *protocol.PageEngine
	caches []*cache.Hierarchy
}

// New creates an SVM platform over the given address space for np nodes.
// The page size must be a power of two (it always has been: page-grained
// protocols inherit it from the MMU).
func New(as *mem.AddressSpace, p protocol.HLRCParams, np int) *Platform {
	s := &Platform{
		P: p, as: as, np: np,
		pageShift: protocol.PageShift(p.PageSize),
		levelCost: [3]uint64{cache.L1Hit: 0, cache.L2Hit: p.L2HitCost, cache.Miss: p.MemCost},
	}
	s.eng = protocol.NewPageEngine(protocol.PageConfig{
		Params: p, Domains: np, Host: s,
		CountApplies: true,
		Scope:        "svm", Noun: "node",
	})
	return s
}

// HomeDomain implements protocol.PageHost: flat platform, one domain per
// node, homes straight from the address space's page placement.
func (s *Platform) HomeDomain(addr uint64) int { return s.as.Home(addr) }

// HandlerProc implements protocol.PageHost: a node runs its own handlers.
func (s *Platform) HandlerProc(dom int) int { return dom }

// MemberRange implements protocol.PageHost: a domain is exactly one node.
func (s *Platform) MemberRange(dom int) (int, int) { return dom, dom + 1 }

// PageArrived implements protocol.PageHost: the fetched page's contents
// changed under the node's caches.
func (s *Platform) PageArrived(dom int, pg uint64) {
	s.caches[dom].InvalidateRange(pg*s.P.PageSize, int(s.P.PageSize))
}

// DiffApplied implements protocol.PageHost: the home copy changed under the
// home's caches.
func (s *Platform) DiffApplied(home int, pg uint64) {
	s.caches[home].InvalidateRange(pg*s.P.PageSize, int(s.P.PageSize))
}

// Name implements sim.Platform.
func (s *Platform) Name() string { return "svm" }

// LineSize reports the coherence-irrelevant cache line size used for range
// accesses.
func (s *Platform) LineSize() int { return CacheConfig.Line }

// Attach implements sim.Platform, resetting all protocol state. A platform
// reattached to run again (micro-benchmarks, parameter sweeps on one
// instance) resets its nodes in place — vector clocks, page tables, the
// cache tag arrays (about 33 KB per node) and their page fill filters are
// cleared, not reallocated — so a repeated run allocates nothing and starts
// from the identical cold state a fresh platform would.
func (s *Platform) Attach(k *sim.Kernel) {
	s.k = k
	npages := int(s.as.NumPages()) + 1
	if s.eng.Init(k, npages) {
		for _, h := range s.caches {
			h.Reset()
		}
	} else {
		s.caches = make([]*cache.Hierarchy, s.np)
		for i := range s.caches {
			s.caches[i] = cache.New(CacheConfig)
			s.caches[i].FilterPages(int(s.P.PageSize), npages)
		}
	}
}

// Prevalidate implements sim.Prevalidator: pages of [addr, addr+n) get a
// valid (clean) copy at node, modelling data placed during untimed setup.
func (s *Platform) Prevalidate(addr uint64, nbytes int, nd int) {
	s.eng.Prevalidate(addr, nbytes, nd)
}

// FastAccess implements sim.Platform: hits on valid pages (and writes on
// already-dirty pages) are purely local.
func (s *Platform) FastAccess(p int, now uint64, addr uint64, write bool) (uint64, bool) {
	d := s.eng.Doms[p]
	pg := addr >> s.pageShift
	if !d.Valid[pg] {
		return 0, false
	}
	if write && !d.Dirty[pg] {
		return 0, false // needs a write trap + twin
	}
	lvl, _ := s.caches[p].Access(addr, write, cache.Exclusive)
	return s.levelCost[lvl], true
}

// FastRange implements sim.RangeAccessor: it processes the fast-path prefix
// of a line-aligned batch [addr, end) in one call — per line exactly what
// FastAccess does — and stops at the first line of a page that would fault
// or write-trap, without touching that page's state. The page-table check
// hoists from per line to per page; the cache walk per line is unchanged,
// so simulated cost and cache evolution are bit-identical to the scalar
// path.
func (s *Platform) FastRange(p int, now uint64, addr, end uint64, write bool) (int, uint64) {
	d := s.eng.Doms[p]
	h := s.caches[p]
	line := uint64(CacheConfig.Line)
	count := 0
	var stall uint64
	for addr < end {
		pg := addr >> s.pageShift
		if !d.Valid[pg] {
			break
		}
		if write && !d.Dirty[pg] {
			break
		}
		stop := (pg + 1) << s.pageShift
		if end < stop {
			stop = end
		}
		for addr < stop {
			lvl, _ := h.Access(addr, write, cache.Exclusive)
			stall += s.levelCost[lvl]
			count++
			addr += line
		}
	}
	return count, stall
}

// SlowAccess implements sim.Platform: page faults (fetch from home) and
// first-write traps (twin creation), priced by the page engine; the local
// cache walk follows as on the fast path.
func (s *Platform) SlowAccess(p int, now uint64, addr uint64, write bool) sim.AccessCost {
	d := s.eng.Doms[p]
	pg := addr >> s.pageShift
	var cost sim.AccessCost
	if !d.Valid[pg] {
		cost.DataWait += s.eng.Fault(p, p, now, addr)
	}
	if write && !d.Dirty[pg] {
		cost.Handler += s.eng.Trap(p, p, now, addr)
	}
	lvl, _ := s.caches[p].Access(addr, write, cache.Exclusive)
	cost.CacheStall += s.levelCost[lvl]
	return cost
}

// LockRequest implements sim.Platform: the acquirer sends a request to the
// lock's manager, which forwards it toward the holder.
func (s *Platform) LockRequest(p int, now uint64, lock int) uint64 {
	mgr := lock % s.np
	s.k.ChargeHandler(mgr, s.P.MsgRecv+s.P.LockMgrService)
	s.k.Counters(p).RemoteLockMsgs++
	return s.P.MsgSend + s.P.NetLatency
}

// LockGrant implements sim.Platform: the grant message carries the
// releaser's vector clock; the acquirer applies the corresponding write
// notices (lazy invalidation).
func (s *Platform) LockGrant(p int, now uint64, lock int, prevHolder int) uint64 {
	cost := s.P.NetLatency + s.P.MsgRecv // grant message
	if prevHolder >= 0 && prevHolder != p {
		cost += s.P.MsgSend + s.P.NetLatency + s.P.MsgRecv // manager->holder hop
	}
	return cost + s.eng.AcquireApply(lock, p, p, now)
}

// LockRelease implements sim.Platform: HLRC propagates diffs to homes at
// release; the release itself is local (lazy protocol).
func (s *Platform) LockRelease(p int, now uint64, lock int) (syncC, handler, freeDelay uint64) {
	handler = s.eng.Flush(p, p, now)
	s.eng.SaveLockVC(lock, p)
	return 100, handler, 0
}

// BarrierArrive implements sim.Platform: arrival flushes diffs to homes and
// sends the arrival message with write notices to the barrier manager.
func (s *Platform) BarrierArrive(p int, now uint64) (syncC, handler uint64) {
	handler = s.eng.Flush(p, p, now)
	return s.P.MsgSend + s.P.NetLatency, handler
}

// BarrierRelease implements sim.Platform: the manager serially processes one
// arrival message per processor (merging write notices), then broadcasts the
// release.
func (s *Platform) BarrierRelease(arrivals []uint64, manager int) uint64 {
	return s.eng.ReleaseWork(arrivals, manager, len(arrivals))
}

// BarrierDepart implements sim.Platform: on departure every node has merged
// every other node's vector clock; stale copies are invalidated.
func (s *Platform) BarrierDepart(p int, releaseTime uint64) uint64 {
	return s.P.MsgRecv + s.eng.DepartApply(p, p, releaseTime)
}

var (
	_ sim.Platform      = (*Platform)(nil)
	_ sim.Prevalidator  = (*Platform)(nil)
	_ sim.RangeAccessor = (*Platform)(nil)
	_ protocol.PageHost = (*Platform)(nil)
)
