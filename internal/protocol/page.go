package protocol

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// PageConfig assembles a PageEngine. The engine runs the home-based lazy
// release consistency (HLRC) state machine over coherence DOMAINS of Cluster
// consecutive processors each: a node on the flat SVM platform (Cluster 1),
// an SMP cluster on the two-level one. Processor p belongs to domain
// p/Cluster; a domain's protocol handlers run on its first processor; the
// last domain is short when Cluster does not divide the processor count.
type PageConfig struct {
	Params HLRCParams
	// AS places the pages: a page's home domain is the domain of its home
	// processor (AS.Home). The address space has one node per processor.
	AS      *mem.AddressSpace
	Cluster int
	// PageChanged is called after page pg's contents changed at domain dom —
	// a fetched page landed there, or a diff was applied at its home — so
	// the domain's caches must drop the page's lines.
	PageChanged func(dom int, pg uint64)
	// CountApplies updates the home handler processor's DiffsApplied
	// counter per diff (the flat SVM platform does; the two-level platform
	// leaves home-side diff counting out of its per-processor stats).
	CountApplies bool
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

// Local reports whether an access to page pg is purely local to the domain:
// the page is valid and, for a write, already twinned in the open interval.
// Anything else faults or write-traps. The platforms' fast paths call it on
// every simulated reference.
func (d *PageDomain) Local(pg uint64, write bool) bool {
	return d.Valid[pg] && (!write || d.Dirty[pg])
}

// PageEngine is the page-grained write/consistency policy: home-based lazy
// release consistency with twins, diffs, write notices and vector clocks,
// implemented once and parameterized by a cluster size (PageConfig). The
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
	np, nd    int    // processors and domains, set by Init
	noun      string // "node" or "cluster", for messages
	pageShift uint

	// notices[q] is domain q's write-notice log; acquirers read the pages
	// flushed in the intervals their vector clock advances over and
	// invalidate them (the write notices of LRC).
	notices []noticeLog

	// lockVC[id] is the releaser's vector clock at the last release of
	// lock id, transferred to the next acquirer.
	lockVC map[int][]uint32

	// npagesAlloc is the page-table size the domains were built with; Init
	// reuses them in place while the address space still fits.
	npagesAlloc int
}

// noticeLog is one domain's write notices, flat and pointer-free: pages
// holds every page flushed, interval after interval, and marks holds one
// (interval, end) pair per interval that logged a page, ascending in both.
// The pages of intervals 1..i end at endOf(i), the end of the last mark at
// or before interval i, so intervals from+1..upTo are one slice of pages.
// Flush appends in place. Most intervals of lock-heavy runs log no page and
// leave no mark; uint32 fields keep a mark at 8 bytes (2^32 notices would be
// 32 GiB of pages).
type noticeLog struct {
	pages []uint64
	marks []noticeMark
}

// noticeMark closes an interval that logged pages: its pages end at offset
// end of the log.
type noticeMark struct{ interval, end uint32 }

// endOf returns the number of pages logged in intervals 1..i.
func (l *noticeLog) endOf(i uint32) uint32 {
	// k counts the marks at or before i: all of them for an acquirer
	// catching up to the latest interval, the common case, else a binary
	// search finds the first mark past i.
	k := len(l.marks)
	if k > 0 && l.marks[k-1].interval > i {
		k = sort.Search(k, func(m int) bool { return l.marks[m].interval > i })
	}
	if k == 0 {
		return 0
	}
	return l.marks[k-1].end
}

// since returns the pages flushed in intervals from+1..upTo (from < upTo),
// in the order they were flushed.
func (l *noticeLog) since(from, upTo uint32) []uint64 {
	return l.pages[l.endOf(from):l.endOf(upTo)]
}

// NewPageEngine builds an engine; per-run state is created by Init.
func NewPageEngine(cfg PageConfig) *PageEngine {
	noun := "cluster"
	if cfg.Cluster == 1 {
		noun = "node"
	}
	return &PageEngine{
		Cfg: cfg, P: cfg.Params, noun: noun,
		pageShift: PageShift(cfg.Params.PageSize),
	}
}

// domainOf returns processor p's domain.
func (e *PageEngine) domainOf(p int) int { return p / e.Cfg.Cluster }

// home returns the domain that is home to addr's page.
func (e *PageEngine) home(addr uint64) int { return e.domainOf(e.Cfg.AS.Home(addr)) }

// handler returns the processor that runs dom's protocol handlers, the
// target of handler-cycle charges and counters of home-side work.
func (e *PageEngine) handler(dom int) int { return dom * e.Cfg.Cluster }

// members returns dom's half-open processor range [lo, hi).
func (e *PageEngine) members(dom int) (lo, hi int) {
	lo = dom * e.Cfg.Cluster
	return lo, min(lo+e.Cfg.Cluster, e.np)
}

// Init resets all protocol state for a run over npages pages, on as many
// processors as the kernel runs. An engine
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
	e.np = k.Config().NumProcs
	e.nd = (e.np + e.Cfg.Cluster - 1) / e.Cfg.Cluster
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
			e.notices[i] = noticeLog{pages: e.notices[i].pages[:0], marks: e.notices[i].marks[:0]}
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
		e.lockVC = map[int][]uint32{}
		e.npagesAlloc = npages
	}
	for pg := 0; pg < npages; pg++ {
		e.Doms[e.home(uint64(pg)*e.P.PageSize)].Valid[pg] = true
	}
	return reused
}

// Prevalidate gives processor p's domain a valid (clean) copy of every page
// overlapping [addr, addr+nbytes), modelling data placed during untimed
// setup.
func (e *PageEngine) Prevalidate(addr uint64, nbytes int, p int) {
	first := addr >> e.pageShift
	last := (addr + uint64(nbytes) - 1) >> e.pageShift
	d := e.Doms[e.domainOf(p)]
	for pg := first; pg <= last; pg++ {
		d.Valid[pg] = true
	}
}

// Fault handles a page fault by processor p: fetch the whole page from the
// home to p's domain. That domain is never the home: homes start with valid
// copies of every page of the address space and never invalidate their own.
// Returns the cycles the faulting processor waits (DataWait).
func (e *PageEngine) Fault(p int, now uint64, addr uint64) (wait uint64) {
	dom := e.domainOf(p)
	d := e.Doms[dom]
	pg := addr >> e.pageShift
	c := e.k.Counters(p)
	c.PageFaults++
	e.k.Emit(trace.PageFault, p, now, pg, 0)
	home := e.home(addr)
	c.PageFetches++
	hp := e.handler(home)
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
	e.Cfg.PageChanged(dom, pg)
	return wait
}

// Trap handles the first write to a page in the current interval: a write
// trap by processor p, plus a twin for later diffing when p's domain is not
// the page's home. Returns the handler cycles charged to the writing
// processor. With a single domain there is no coherence to maintain, so
// pages are never write-protected (the paper's sequential baseline is plain
// execution).
func (e *PageEngine) Trap(p int, now uint64, addr uint64) (handler uint64) {
	if e.nd <= 1 {
		return 0
	}
	dom := e.domainOf(p)
	d := e.Doms[dom]
	pg := addr >> e.pageShift
	handler = e.P.WriteTrap
	e.k.Emit(trace.WriteTrap, p, now, pg, e.P.WriteTrap)
	if e.home(addr) != dom {
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
	home := e.home(pg * e.P.PageSize)
	e.k.Counters(p).DiffsCreated++
	local = e.P.DiffCreate + e.P.MsgSend
	e.k.Emit(trace.DiffCreate, p, now+local, pg, e.P.DiffCreate)
	hp := e.handler(home)
	if e.Cfg.CountApplies {
		e.k.Counters(hp).DiffsApplied++
	}
	service := e.P.MsgRecv + e.P.DiffXfer + e.P.DiffApply
	start := e.Doms[home].NIC.Acquire(now+local+e.P.NetLatency, service)
	e.k.ChargeHandler(hp, service)
	e.k.Emit(trace.DiffApply, hp, start, pg, service)
	e.k.Emit(trace.NICOccupy, home, start, pg, service)
	e.Cfg.PageChanged(home, pg)
	return local
}

// Flush computes diffs for all pages processor p's domain dirtied in the
// current interval, sends them to their homes, logs write notices, and opens
// a new interval (p takes the handler charges and trace events). It returns
// the handler cycles spent by the flushing processor.
func (e *PageEngine) Flush(p int, now uint64) (handler uint64) {
	dom := e.domainOf(p)
	d := e.Doms[dom]
	log := &e.notices[dom]
	start := len(log.pages)
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
		if e.home(pg*e.P.PageSize) != dom {
			// Diff against the twin, ship to home, home applies.
			handler += e.DiffHome(p, pg, now+handler)
		}
	}
	d.DirtyLst = d.DirtyLst[:0]
	if d.Interval == math.MaxUint32 {
		// Intervals advance at every release and barrier arrival whether or
		// not anything was written, so a long enough run genuinely gets
		// here. Wrapping would silently reorder the vector clocks (interval
		// 0 would compare older than everything it follows), so fail loudly;
		// the kernel contains the panic as a ProcPanicError.
		panic(&IntervalOverflowError{Noun: e.noun, Domain: dom})
	}
	if len(log.pages) > start {
		log.marks = append(log.marks, noticeMark{d.Interval + 1, uint32(len(log.pages))})
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
	d := e.Doms[dom]
	if dom == q || upTo <= d.VC[q] {
		return 0, 0
	}
	for _, pg := range e.notices[q].since(d.VC[q], upTo) {
		// The home keeps its copy up to date by applying diffs; everyone
		// else invalidates.
		if e.home(pg*e.P.PageSize) == dom {
			continue
		}
		if d.Valid[pg] {
			if d.Dirty[pg] {
				// The page was written here in the still-open interval. A
				// multiple-writer protocol must not lose those writes:
				// compute the diff against the twin and flush it home
				// before dropping the copy (TreadMarks-style
				// diff-on-invalidate; word-grained diffs merge at the home,
				// which is what makes falsely-shared pages safe). The write
				// notice is still published when the interval closes.
				// Leaving the entry in DirtyLst instead would flush a diff
				// for an invalid page — and a re-write after a refetch would
				// append a duplicate entry, double-counting the diff.
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
	d.VC[q] = upTo
	return inv, diffC
}

// AcquireApply applies the write notices carried by lock's last release
// vector clock to acquiring processor p's domain (lazy invalidation),
// charging diff work asynchronously to p's handler time — it must not
// serialize lock handoffs. Returns the invalidation cycles to add to the
// acquire cost; zero (and no state change) when the lock has never been
// released.
func (e *PageEngine) AcquireApply(lock, p int, now uint64) uint64 {
	rvc, ok := e.lockVC[lock]
	if !ok {
		return 0
	}
	dom := e.domainOf(p)
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

// SaveLockVC records processor p's domain's vector clock as lock's release
// clock. The backing array is reused across releases: AcquireApply consumes
// the values synchronously before the next release of the same lock can
// overwrite them, and the map holds last-release-wins semantics.
func (e *PageEngine) SaveLockVC(lock, p int) {
	rvc := e.lockVC[lock]
	if rvc == nil {
		rvc = make([]uint32, e.nd)
		e.lockVC[lock] = rvc
	}
	copy(rvc, e.Doms[e.domainOf(p)].VC)
}

// ReleaseWork computes a barrier's global release time: the manager serially
// processes one arrival message per domain (merging write notices), then
// broadcasts the release.
func (e *PageEngine) ReleaseWork(arrivals []uint64, manager int) uint64 {
	var maxArr uint64
	for _, a := range arrivals {
		if a > maxArr {
			maxArr = a
		}
	}
	mgrWork := uint64(e.nd) * (e.P.MsgRecv/4 + e.P.BarrierPerProc)
	e.k.ChargeHandler(manager, mgrWork)
	return maxArr + mgrWork + e.P.BarrierBcast + e.P.NetLatency
}

// DepartApply performs post-barrier consistency for processor p's domain:
// on departure every domain has merged every other domain's vector clock,
// so stale copies are invalidated. Diff work is charged asynchronously to p
// (arrival flushed the domain's dirty pages, so it is zero in practice;
// accounted anyway for symmetry with AcquireApply). Returns the
// invalidation cycles.
func (e *PageEngine) DepartApply(p int, releaseTime uint64) uint64 {
	dom := e.domainOf(p)
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

// check audits the log of a domain that has closed intervals 1..interval.
func (l *noticeLog) check(interval uint32) error {
	var prev noticeMark // interval 0 logs nothing and ends at 0
	for i, m := range l.marks {
		if m.interval <= prev.interval || m.end <= prev.end {
			return fmt.Errorf("mark %d (interval %d, end %d) does not ascend past (interval %d, end %d)", i, m.interval, m.end, prev.interval, prev.end)
		}
		prev = m
	}
	if prev.interval > interval {
		return fmt.Errorf("marks interval %d, past the last closed interval %d", prev.interval, interval)
	}
	if int(prev.end) != len(l.pages) {
		return fmt.Errorf("marks end at %d but holds %d pages", prev.end, len(l.pages))
	}
	return nil
}

// CheckInvariants audits the HLRC state — the single implementation of the
// page-protocol invariants the flat and two-level platforms each carried a
// copy of. Messages name the domain ("node 3", "cluster 1"); each platform
// prefixes its own name. The audited invariants:
//
//   - a domain's own vector-clock entry tracks its interval counter, and its
//     write log's marks ascend strictly in interval and in end, name no
//     interval past the counter, and end exactly at the last logged page;
//   - no vector clock (per domain or per lock) claims knowledge of an
//     interval its producer has not reached (vector-clock monotonicity);
//   - the dirty list is duplicate-free and agrees with the dirty bits, and
//     dirty pages are valid (a twin without a readable copy is meaningless);
//   - twin/diff balance: every twin ever made has either been diffed (at a
//     flush or at an acquire-time invalidation) or is still pending in the
//     open interval (non-home dirty pages) — twins are never dropped without
//     their writes reaching the home. The balance is aggregated over the
//     domain's processors: on the two-level platform the write
//     trap lands on the accessing processor while the flush lands on
//     whichever cluster mate releases;
//   - the diffed-but-unnotified list is duplicate-free;
//   - NIC occupancy never exceeds its busy-until clock.
func (e *PageEngine) CheckInvariants() error {
	noun := e.noun
	for dom, d := range e.Doms {
		if d.VC[dom] != d.Interval {
			return fmt.Errorf("%s %d's own vector-clock entry is %d but its interval is %d", noun, dom, d.VC[dom], d.Interval)
		}
		if err := e.notices[dom].check(d.Interval); err != nil {
			return fmt.Errorf("%s %d's write log %w", noun, dom, err)
		}
		for q, dq := range e.Doms {
			if d.VC[q] > dq.Interval {
				return fmt.Errorf("%s %d knows interval %d of %s %d, which has only reached %d", noun, dom, d.VC[q], noun, q, dq.Interval)
			}
		}
		seen := make(map[uint64]bool, len(d.DirtyLst))
		var pendingTwins uint64
		for _, pg := range d.DirtyLst {
			if seen[pg] {
				return fmt.Errorf("%s %d's dirty list holds page %d twice", noun, dom, pg)
			}
			seen[pg] = true
			if !d.Dirty[pg] {
				return fmt.Errorf("%s %d's dirty list holds page %d but its dirty bit is clear", noun, dom, pg)
			}
			if !d.Valid[pg] {
				return fmt.Errorf("%s %d has page %d dirty but not valid", noun, dom, pg)
			}
			if e.home(pg*e.P.PageSize) != dom {
				pendingTwins++
			}
		}
		for pg, dirty := range d.Dirty {
			if dirty && !seen[uint64(pg)] {
				return fmt.Errorf("%s %d has page %d marked dirty but missing from the dirty list", noun, dom, pg)
			}
		}
		seenPend := make(map[uint64]bool, len(d.Pending))
		for _, pg := range d.Pending {
			if seenPend[pg] {
				return fmt.Errorf("%s %d's pending-notice list holds page %d twice", noun, dom, pg)
			}
			seenPend[pg] = true
		}
		var made, diffed uint64
		lo, hi := e.members(dom)
		for q := lo; q < hi; q++ {
			c := e.k.Counters(q)
			made += c.TwinsMade
			diffed += c.DiffsCreated
		}
		if made != diffed+pendingTwins {
			return fmt.Errorf("%s %d twin/diff balance broken: %d twins made != %d diffs + %d pending",
				noun, dom, made, diffed, pendingTwins)
		}
		if err := d.NIC.CheckOccupancy(fmt.Sprintf("%s %d NIC", noun, dom)); err != nil {
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
				return fmt.Errorf("lock %d's vector clock knows interval %d of %s %d, which has only reached %d", id, iv, noun, q, e.Doms[q].Interval)
			}
		}
	}
	return nil
}
