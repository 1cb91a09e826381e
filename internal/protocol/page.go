package protocol

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// PageHost is how a PageEngine's owner maps protocol roles onto the machine.
// The engine runs the home-based lazy release consistency (HLRC) state
// machine over abstract coherence DOMAINS; the host decides what a domain is
// (a node on the flat SVM platform, an SMP cluster on the two-level one) and
// what happens beneath the page table when page contents change.
type PageHost interface {
	// HomeDomain returns the domain that is home to addr's page.
	HomeDomain(addr uint64) int
	// HandlerProc returns the global processor that runs dom's protocol
	// handlers (the node itself, or a cluster's first processor) — the
	// target for handler-cycle charges and per-processor counters of
	// home-side work.
	HandlerProc(dom int) int
	// MemberRange returns the half-open global-processor range [lo, hi) of
	// dom, for accounting that must aggregate over a domain's processors
	// (the twin/diff balance invariant).
	MemberRange(dom int) (lo, hi int)
	// PageArrived is called after a fetched page lands at dom: its contents
	// changed under the domain's caches, which must drop the page's lines.
	PageArrived(dom int, pg uint64)
	// DiffApplied is called after a diff is applied at home's copy: same
	// cache consequence, at the home domain.
	DiffApplied(home int, pg uint64)
}

// PageConfig assembles a PageEngine.
type PageConfig struct {
	Params  HLRCParams
	Domains int
	Host    PageHost
	// CountApplies updates the home handler processor's DiffsApplied
	// counter per diff (the flat SVM platform does; the two-level platform
	// leaves home-side diff counting out of its per-processor stats).
	CountApplies bool
	// Scope and Noun shape invariant-violation messages: "svm"/"node" on
	// the flat platform, "svmsmp"/"cluster" on the two-level one.
	Scope, Noun string
}

// PageDomain is one coherence domain's HLRC state: the vector clock and
// interval counter, the page table (valid/dirty bits plus the dirty list
// driving the next flush), the diffed-but-unnotified pending list, and the
// NIC modeling the domain's protocol-handler occupancy for incoming
// requests. Fields are exported because the platform fast paths (FastAccess,
// FastRange) read Valid/Dirty directly on every simulated reference.
type PageDomain struct {
	VC       []uint32 // latest interval of each domain known here
	Interval uint32   // own current interval
	Valid    []bool   // per page: is a copy readable here
	Dirty    []bool   // per page: twin exists (written in current interval)
	DirtyLst []uint64
	// Pending lists pages whose diff was already flushed home by an
	// acquire-time invalidation in the still-open interval; the next flush
	// publishes their write notices without diffing them again.
	Pending []uint64
	NIC     sim.Resource
}

// PageEngine is the page-grained write/consistency policy: home-based lazy
// release consistency with twins, diffs, write notices and vector clocks,
// implemented once and parameterized by the domain mapping (PageHost). The
// flat SVM platform instantiates it with one domain per node; the two-level
// platform with one domain per SMP cluster, stacking a {MESI × SnoopBus}
// line engine underneath.
type PageEngine struct {
	Cfg PageConfig
	// Doms is the per-run protocol state; exported for the platforms' fast
	// paths and white-box tests.
	Doms []*PageDomain

	P         HLRCParams
	k         *sim.Kernel
	nd        int
	pageShift uint

	// notices[q] is domain q's write-notice log; acquirers walk the
	// intervals their vector clock advances over and invalidate the pages
	// flushed in them (the write notices of LRC).
	notices []noticeLog

	// lockVC[id] is the releaser's vector clock at the last release of
	// lock id, transferred to the next acquirer.
	lockVC map[int][]uint32

	// npagesAlloc is the page-table size the domains were built with; Init
	// reuses them in place while the address space still fits.
	npagesAlloc int
}

// noticeLog is one domain's write notices, flat and pointer-free: the pages
// flushed in interval i are pages[ends[i-1]:ends[i]], and ends[0] == 0 closes
// the empty interval 0, so len(ends) is the domain's interval count plus one.
// Flush appends in place. Most intervals of lock-heavy runs log no page, so
// ends is most of the log; uint32 offsets halve it (2^32 notices would be
// 32 GiB of pages).
type noticeLog struct {
	pages []uint64
	ends  []uint32
}

// interval returns the pages flushed in interval i (0 < i < len(ends)).
func (l *noticeLog) interval(i int) []uint64 { return l.pages[l.ends[i-1]:l.ends[i]] }

// NewPageEngine builds an engine; per-run state is created by Init.
func NewPageEngine(cfg PageConfig) *PageEngine {
	return &PageEngine{
		Cfg: cfg, P: cfg.Params, nd: cfg.Domains,
		pageShift: PageShift(cfg.Params.PageSize),
	}
}

// Init resets all protocol state for a run over npages pages. An engine
// re-initialized with a fitting shape resets its domains in place — vector
// clocks and page tables are cleared, not reallocated — so a repeated run
// allocates nothing and starts from the identical cold state a fresh engine
// would. It returns whether the in-place path was taken, so the owner can
// mirror the decision for the cache hierarchies it manages. Home domains
// start with valid copies of their pages (untimed initialization, as in the
// paper). The page tables are sized here once: a page at or past npages has
// no entry, so touching it panics inside the run.
func (e *PageEngine) Init(k *sim.Kernel, npages int) (reused bool) {
	e.k = k
	if len(e.Doms) == e.nd && npages <= e.npagesAlloc {
		for _, d := range e.Doms {
			clear(d.VC)
			d.Interval = 0
			clear(d.Valid)
			clear(d.Dirty)
			d.DirtyLst = d.DirtyLst[:0]
			d.Pending = d.Pending[:0]
			d.NIC = sim.Resource{}
		}
		for i := range e.notices {
			e.notices[i] = noticeLog{pages: e.notices[i].pages[:0], ends: append(e.notices[i].ends[:0], 0)}
		}
		clear(e.lockVC)
		reused = true
	} else {
		e.Doms = make([]*PageDomain, e.nd)
		for i := range e.Doms {
			e.Doms[i] = &PageDomain{
				VC:    make([]uint32, e.nd),
				Valid: make([]bool, npages),
				Dirty: make([]bool, npages),
			}
		}
		e.notices = make([]noticeLog, e.nd)
		for i := range e.notices {
			e.notices[i].ends = []uint32{0}
		}
		e.lockVC = map[int][]uint32{}
		e.npagesAlloc = npages
	}
	for pg := 0; pg < npages; pg++ {
		e.Doms[e.Cfg.Host.HomeDomain(uint64(pg)*e.P.PageSize)].Valid[pg] = true
	}
	return reused
}

// Prevalidate gives dom a valid (clean) copy of every page overlapping
// [addr, addr+nbytes), modelling data placed during untimed setup.
func (e *PageEngine) Prevalidate(addr uint64, nbytes int, dom int) {
	first := addr >> e.pageShift
	last := (addr + uint64(nbytes) - 1) >> e.pageShift
	d := e.Doms[dom]
	for pg := first; pg <= last; pg++ {
		d.Valid[pg] = true
	}
}

// Fault handles a page fault by processor p in domain dom: fetch the whole
// page from the home. dom is never the home: homes start with valid copies
// of every page of the address space and never invalidate their own.
// Returns the cycles the faulting processor waits (DataWait).
func (e *PageEngine) Fault(p, dom int, now uint64, addr uint64) (wait uint64) {
	d := e.Doms[dom]
	pg := addr >> e.pageShift
	c := e.k.Counters(p)
	c.PageFaults++
	e.k.Emit(trace.PageFault, p, now, pg, 0)
	home := e.Cfg.Host.HomeDomain(addr)
	c.PageFetches++
	hp := e.Cfg.Host.HandlerProc(home)
	e.k.Counters(hp).PagesServed++
	reqArrive := now + e.P.FaultOverhead + e.P.MsgSend + e.P.NetLatency
	service := e.P.MsgRecv + e.P.HomeService + e.P.PageXfer
	start := e.Doms[home].NIC.Acquire(reqArrive, service)
	e.k.ChargeHandler(hp, service)
	// The page crosses the requester's I/O bus too before the faulting
	// processor can be resumed.
	done := start + service + e.P.NetLatency + e.P.PageXfer + e.P.MsgRecv
	wait = done - now
	e.k.Emit(trace.PageFetch, p, now, pg, wait)
	e.k.Emit(trace.NICOccupy, home, start, pg, service)
	d.Valid[pg] = true
	d.Dirty[pg] = false
	// The page contents changed under the domain's caches.
	e.Cfg.Host.PageArrived(dom, pg)
	return wait
}

// Trap handles the first write to a page in the current interval: a write
// trap, plus a twin for later diffing when dom is not the page's home.
// Returns the handler cycles charged to the writing processor. With a single
// domain there is no coherence to maintain, so pages are never
// write-protected (the paper's sequential baseline is plain execution).
func (e *PageEngine) Trap(p, dom int, now uint64, addr uint64) (handler uint64) {
	if e.nd <= 1 {
		return 0
	}
	d := e.Doms[dom]
	pg := addr >> e.pageShift
	handler = e.P.WriteTrap
	e.k.Emit(trace.WriteTrap, p, now, pg, e.P.WriteTrap)
	if e.Cfg.Host.HomeDomain(addr) != dom {
		handler += e.P.TwinCost
		e.k.Counters(p).TwinsMade++
		e.k.Emit(trace.TwinCreate, p, now, pg, e.P.TwinCost)
	}
	d.Dirty[pg] = true
	d.DirtyLst = append(d.DirtyLst, pg)
	return handler
}

// DiffHome computes the diff of page pg against its twin, ships it to the
// page's home domain and has the home apply it (updating the home copy under
// the home's caches). It returns the cycles spent on the diffing processor
// p; the home's receive/apply work is charged asynchronously to its handler
// processor.
func (e *PageEngine) DiffHome(p int, pg uint64, now uint64) (local uint64) {
	home := e.Cfg.Host.HomeDomain(pg * e.P.PageSize)
	e.k.Counters(p).DiffsCreated++
	local = e.P.DiffCreate + e.P.MsgSend
	e.k.Emit(trace.DiffCreate, p, now+local, pg, e.P.DiffCreate)
	hp := e.Cfg.Host.HandlerProc(home)
	if e.Cfg.CountApplies {
		e.k.Counters(hp).DiffsApplied++
	}
	service := e.P.MsgRecv + e.P.DiffXfer + e.P.DiffApply
	start := e.Doms[home].NIC.Acquire(now+local+e.P.NetLatency, service)
	e.k.ChargeHandler(hp, service)
	e.k.Emit(trace.DiffApply, hp, start, pg, service)
	e.k.Emit(trace.NICOccupy, home, start, pg, service)
	e.Cfg.Host.DiffApplied(home, pg)
	return local
}

// Flush computes diffs for all pages dom dirtied in the current interval,
// sends them to their homes, logs write notices, and opens a new interval
// (p is the flushing processor, for handler charges and trace events). It
// returns the handler cycles spent by the flushing processor.
func (e *PageEngine) Flush(dom, p int, now uint64) (handler uint64) {
	d := e.Doms[dom]
	log := &e.notices[dom]
	// Pages whose diff already went home at an acquire-time invalidation
	// still owe a write notice in this interval; re-dirtied ones are
	// covered by the dirty-list walk below.
	for _, pg := range d.Pending {
		if d.Dirty[pg] {
			continue
		}
		log.pages = append(log.pages, pg)
		handler += e.P.NoticeCost
		e.k.Emit(trace.WriteNotice, p, now+handler, pg, e.P.NoticeCost)
	}
	d.Pending = d.Pending[:0]
	for _, pg := range d.DirtyLst {
		d.Dirty[pg] = false
		log.pages = append(log.pages, pg)
		handler += e.P.NoticeCost
		e.k.Emit(trace.WriteNotice, p, now+handler, pg, e.P.NoticeCost)
		if e.Cfg.Host.HomeDomain(pg*e.P.PageSize) != dom {
			// Diff against the twin, ship to home, home applies.
			handler += e.DiffHome(p, pg, now+handler)
		}
	}
	d.DirtyLst = d.DirtyLst[:0]
	log.ends = append(log.ends, uint32(len(log.pages)))
	if d.Interval == math.MaxUint32 {
		// Intervals advance at every release and barrier arrival whether or
		// not anything was written, so a long enough run genuinely gets
		// here. Wrapping would silently reorder the vector clocks (interval
		// 0 would compare older than everything it follows), so fail loudly;
		// the kernel contains the panic as a ProcPanicError.
		panic(&IntervalOverflowError{Node: dom})
	}
	d.Interval++
	d.VC[dom] = d.Interval
	return handler
}

// removeDirty drops pg from the domain's pending-flush list, preserving the
// order of the remaining entries (Flush walks the list in order, so its
// order is part of the run's determinism).
func (d *PageDomain) removeDirty(pg uint64) {
	for i, x := range d.DirtyLst {
		if x == pg {
			d.DirtyLst = append(d.DirtyLst[:i], d.DirtyLst[i+1:]...)
			return
		}
	}
}

// addPending records pg as diffed-but-unnotified in the open interval. A page
// can be invalidated while dirty more than once per interval (re-fetch and
// re-write between two acquires), so membership is checked to keep the list
// duplicate-free — one notice per page per interval.
func (d *PageDomain) addPending(pg uint64) {
	for _, q := range d.Pending {
		if q == pg {
			return
		}
	}
	d.Pending = append(d.Pending, pg)
}

// InvalidateUpTo advances domain dom's knowledge of domain q to interval
// upTo, invalidating dom's copies of every page q flushed in the newly
// covered intervals (the Invalidate trace events land at virtual time now,
// attributed to processor p). Returns the number of pages actually
// invalidated and the cycles spent flushing diffs of dirty pages home before
// dropping them.
func (e *PageEngine) InvalidateUpTo(dom, q int, upTo uint32, p int, now uint64) (inv int, diffC uint64) {
	if dom == q {
		return 0, 0
	}
	d := e.Doms[dom]
	log := &e.notices[q]
	for i := d.VC[q] + 1; i <= upTo; i++ {
		for _, pg := range log.interval(int(i)) {
			// The home keeps its copy up to date by applying diffs;
			// everyone else invalidates.
			if e.Cfg.Host.HomeDomain(pg*e.P.PageSize) == dom {
				continue
			}
			if d.Valid[pg] {
				if d.Dirty[pg] {
					// The page was written here in the still-open interval. A
					// multiple-writer protocol must not lose those writes:
					// compute the diff against the twin and flush it home
					// before dropping the copy (TreadMarks-style
					// diff-on-invalidate; word-grained diffs merge at the
					// home, which is what makes falsely-shared pages safe).
					// The write notice is still published when the interval
					// closes. Leaving the entry in DirtyLst instead would
					// flush a diff for an invalid page — and a re-write after
					// a refetch would append a duplicate entry,
					// double-counting the diff.
					diffC += e.DiffHome(p, pg, now+diffC)
					d.removeDirty(pg)
					d.addPending(pg)
				}
				d.Valid[pg] = false
				d.Dirty[pg] = false
				inv++
				e.k.Emit(trace.Invalidate, p, now, pg, e.P.InvalCost)
			}
		}
	}
	if upTo > d.VC[q] {
		d.VC[q] = upTo
	}
	return inv, diffC
}

// AcquireApply applies the write notices carried by lock's last release
// vector clock to acquiring domain dom (lazy invalidation), charging diff
// work asynchronously to processor p's handler time — it must not serialize
// lock handoffs. Returns the invalidation cycles to add to the acquire cost;
// zero (and no state change) when the lock has never been released.
func (e *PageEngine) AcquireApply(lock, dom, p int, now uint64) uint64 {
	rvc, ok := e.lockVC[lock]
	if !ok {
		return 0
	}
	inv := 0
	var diff uint64
	for q := 0; q < e.nd; q++ {
		i, diffC := e.InvalidateUpTo(dom, q, rvc[q], p, now+diff)
		inv += i
		diff += diffC
	}
	e.k.ChargeHandler(p, diff)
	e.k.Counters(p).Invalidations += uint64(inv)
	return uint64(inv) * e.P.InvalCost
}

// SaveLockVC records dom's vector clock as lock's release clock. The
// backing array is reused across releases: AcquireApply consumes the values
// synchronously before the next release of the same lock can overwrite
// them, and the map holds last-release-wins semantics.
func (e *PageEngine) SaveLockVC(lock, dom int) {
	rvc := e.lockVC[lock]
	if rvc == nil {
		rvc = make([]uint32, e.nd)
		e.lockVC[lock] = rvc
	}
	copy(rvc, e.Doms[dom].VC)
}

// ReleaseWork computes a barrier's global release time: the manager serially
// processes n arrival messages (merging write notices), then broadcasts the
// release. n is the number of arrival messages the manager handles — one
// per processor on the flat platform, one per cluster on the two-level one.
func (e *PageEngine) ReleaseWork(arrivals []uint64, manager, n int) uint64 {
	var maxArr uint64
	for _, a := range arrivals {
		if a > maxArr {
			maxArr = a
		}
	}
	mgrWork := uint64(n) * (e.P.MsgRecv/4 + e.P.BarrierPerProc)
	e.k.ChargeHandler(manager, mgrWork)
	return maxArr + mgrWork + e.P.BarrierBcast + e.P.NetLatency
}

// DepartApply performs post-barrier consistency for domain dom: on
// departure every domain has merged every other domain's vector clock, so
// stale copies are invalidated. Diff work is charged asynchronously to
// processor p (arrival flushed the domain's dirty pages, so it is zero in
// practice; accounted anyway for symmetry with AcquireApply). Returns the
// invalidation cycles.
func (e *PageEngine) DepartApply(dom, p int, releaseTime uint64) uint64 {
	inv := 0
	var diff uint64
	for q := 0; q < e.nd; q++ {
		if q == dom {
			continue
		}
		i, diffC := e.InvalidateUpTo(dom, q, e.Doms[q].VC[q], p, releaseTime+diff)
		inv += i
		diff += diffC
	}
	e.k.ChargeHandler(p, diff)
	e.k.Counters(p).Invalidations += uint64(inv)
	return uint64(inv) * e.P.InvalCost
}

// CheckInvariants audits the HLRC state — the single implementation of the
// page-protocol invariants the flat and two-level platforms each carried a
// copy of. The audited invariants:
//
//   - a domain's own vector-clock entry tracks its interval counter, and its
//     write log holds exactly one notice list per closed interval;
//   - no vector clock (per domain or per lock) claims knowledge of an
//     interval its producer has not reached (vector-clock monotonicity);
//   - the dirty list is duplicate-free and agrees with the dirty bits, and
//     dirty pages are valid (a twin without a readable copy is meaningless);
//   - twin/diff balance: every twin ever made has either been diffed (at a
//     flush or at an acquire-time invalidation) or is still pending in the
//     open interval (non-home dirty pages) — twins are never dropped without
//     their writes reaching the home. The balance is aggregated over the
//     domain's processors (MemberRange): on the two-level platform the write
//     trap lands on the accessing processor while the flush lands on
//     whichever cluster mate releases;
//   - the diffed-but-unnotified list is duplicate-free;
//   - NIC occupancy never exceeds its busy-until clock.
func (e *PageEngine) CheckInvariants() error {
	scope, noun := e.Cfg.Scope, e.Cfg.Noun
	for dom, d := range e.Doms {
		if d.VC[dom] != d.Interval {
			return fmt.Errorf("%s: %s %d's own vector-clock entry is %d but its interval is %d", scope, noun, dom, d.VC[dom], d.Interval)
		}
		if got, want := len(e.notices[dom].ends), int(d.Interval)+1; got != want {
			return fmt.Errorf("%s: %s %d's write log has %d interval entries, want %d", scope, noun, dom, got, want)
		}
		for q, dq := range e.Doms {
			if d.VC[q] > dq.Interval {
				return fmt.Errorf("%s: %s %d knows interval %d of %s %d, which has only reached %d", scope, noun, dom, d.VC[q], noun, q, dq.Interval)
			}
		}
		seen := make(map[uint64]bool, len(d.DirtyLst))
		var pendingTwins uint64
		for _, pg := range d.DirtyLst {
			if seen[pg] {
				return fmt.Errorf("%s: %s %d's dirty list holds page %d twice", scope, noun, dom, pg)
			}
			seen[pg] = true
			if !d.Dirty[pg] {
				return fmt.Errorf("%s: %s %d's dirty list holds page %d but its dirty bit is clear", scope, noun, dom, pg)
			}
			if !d.Valid[pg] {
				return fmt.Errorf("%s: %s %d has page %d dirty but not valid", scope, noun, dom, pg)
			}
			if e.Cfg.Host.HomeDomain(pg*e.P.PageSize) != dom {
				pendingTwins++
			}
		}
		for pg, dirty := range d.Dirty {
			if dirty && !seen[uint64(pg)] {
				return fmt.Errorf("%s: %s %d has page %d marked dirty but missing from the dirty list", scope, noun, dom, pg)
			}
		}
		seenPend := make(map[uint64]bool, len(d.Pending))
		for _, pg := range d.Pending {
			if seenPend[pg] {
				return fmt.Errorf("%s: %s %d's pending-notice list holds page %d twice", scope, noun, dom, pg)
			}
			seenPend[pg] = true
		}
		var made, diffed uint64
		lo, hi := e.Cfg.Host.MemberRange(dom)
		for q := lo; q < hi; q++ {
			c := e.k.Counters(q)
			made += c.TwinsMade
			diffed += c.DiffsCreated
		}
		if made != diffed+pendingTwins {
			return fmt.Errorf("%s: %s %d twin/diff balance broken: %d twins made != %d diffs + %d pending",
				scope, noun, dom, made, diffed, pendingTwins)
		}
		if err := d.NIC.CheckOccupancy(fmt.Sprintf("%s: %s %d NIC", scope, noun, dom)); err != nil {
			return err
		}
	}
	// Sorted lock order so a violating run reports deterministically.
	ids := make([]int, 0, len(e.lockVC))
	for id := range e.lockVC {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		for q, iv := range e.lockVC[id] {
			if iv > e.Doms[q].Interval {
				return fmt.Errorf("%s: lock %d's vector clock knows interval %d of %s %d, which has only reached %d", scope, id, iv, noun, q, e.Doms[q].Interval)
			}
		}
	}
	return nil
}
