// Package cache models a two-level per-processor cache hierarchy with real
// tag arrays, used by all three platform models for local stall accounting
// and (on the hardware-coherent platforms) for MESI line states. The paper's
// configurations: SVM nodes have an 8 KB direct-mapped write-through L1 and a
// 512 KB 2-way L2 with 32 B lines; the DSM nodes a 16 KB L1 and a 1 MB 4-way
// L2 with 64 B lines; the SGI Challenge a 16 KB L1 and 1 MB L2 with 128 B
// lines.
//
// Tag-array layout: each level keeps its ways in ONE contiguous, set-major
// slice of 8-byte way records. A record packs the tag (the line-address bits
// above the set index) and the MESI state into one uint32 key, next to a
// uint32 LRU stamp. Every simulated memory reference of every application
// flows through lookup, so this layout is the simulator's hottest data
// structure: a probe is one predictable indexed load per way, eight records
// share one host cache line, and building a hierarchy is two allocations. The
// replacement decisions (way scan order, LRU victim choice) are bit-for-bit
// those of the earlier slices-per-set and 16-byte-record layouts, so
// simulated timing is unchanged. A line address whose tag does not fit the
// key is rejected with a panic carrying an error, never truncated into an
// alias of another line.
package cache

import (
	"fmt"
	"math/bits"
)

// MESI line states. Platforms that do not track coherence in the cache (the
// SVM platform, which is coherent at page granularity) use only Invalid and
// Exclusive.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Config describes a two-level hierarchy. Sizes in bytes; all powers of two.
type Config struct {
	L1Size  int
	L1Assoc int
	L2Size  int
	L2Assoc int
	Line    int // line size shared by both levels
}

// Level is the level at which an access was satisfied.
type Level int

const (
	L1Hit Level = iota
	L2Hit
	Miss // must go to memory / coherence protocol
)

// way is one 8-byte tag-array entry. key is the tag (the line address with
// its set-index bits shifted out) shifted left stateBits, OR'd with the MESI
// state. An Invalid way (state 0) keeps its stale tag but never matches, as
// the earlier layouts' valid-flag-plus-tag compare did.
type way struct {
	key uint32
	lru uint32
}

const (
	stateBits = 2
	stateMask = 1<<stateBits - 1
	// tagBits is the width of the packed tag: a level with 2^s sets holds
	// line addresses below 2^(s+tagBits).
	tagBits = 32 - stateBits
)

func (w *way) state() State { return State(w.key & stateMask) }

// holds reports whether w is valid and carries tag key tk (state bits 0):
// key^tk is then the state, 1..3, so one unsigned compare decides both.
func (w *way) holds(tk uint32) bool {
	return (w.key^tk)-1 < stateMask
}

// level is one cache level: nSets*assoc ways, set-major — set si occupies
// ways[si*assoc : (si+1)*assoc].
type level struct {
	ways     []way
	setMask  uint64
	setShift uint // log2(nSets) < 64: the tag is lineAddr >> setShift
	assoc    int
}

func newLevel(size, assoc, line int) *level {
	nLines := size / line
	nSets := nLines / assoc
	if nSets == 0 || nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets is not a power of two", nSets))
	}
	return &level{
		ways:     make([]way, nSets*assoc),
		assoc:    assoc,
		setMask:  uint64(nSets - 1),
		setShift: uint(bits.TrailingZeros(uint(nSets))),
	}
}

// tagKey returns lineAddr's packed key with the state bits clear. The caller
// has checked lineAddr against the hierarchy's lineLimit, so no tag bit is
// lost.
func (l *level) tagKey(lineAddr uint64) uint32 {
	return uint32(lineAddr>>(l.setShift&63)) << stateBits
}

// lineAt reconstructs the line address held by way i from its tag and set.
func (l *level) lineAt(i int) uint64 {
	return uint64(l.ways[i].key>>stateBits)<<(l.setShift&63) | uint64(i/l.assoc)
}

// lookup returns the base index of lineAddr's set and the way index holding
// it (wi == -1 when absent). Ways are scanned in ascending order, as the
// previous layout did; the scan order is part of run determinism because it
// decides LRU ties.
func (l *level) lookup(lineAddr uint64) (base, wi int, ok bool) {
	base = int(lineAddr&l.setMask) * l.assoc
	tk := l.tagKey(lineAddr)
	ws := l.ways[base : base+l.assoc]
	for w := range ws {
		if ws[w].holds(tk) {
			return base, w, true
		}
	}
	return base, -1, false
}

// insert places lineAddr in its set with the given state, evicting LRU if
// needed. Victim selection (first invalid way, else lowest LRU stamp, ties
// to the lowest way index) matches the previous layout exactly. It is used
// only for L1 fills, whose evictions nobody observes.
func (l *level) insert(lineAddr uint64, st State, clock uint32) {
	base := int(lineAddr&l.setMask) * l.assoc
	ws := l.ways[base : base+l.assoc]
	victim := 0
	best := ^uint32(0)
	for w := range ws {
		if ws[w].state() == Invalid {
			victim = w
			break
		}
		if ws[w].lru < best {
			best = ws[w].lru
			victim = w
		}
	}
	ws[victim] = way{key: l.tagKey(lineAddr) | uint32(st), lru: clock}
}

// Hierarchy is one processor's L1+L2.
type Hierarchy struct {
	cfg       Config
	l1, l2    *level
	lineShift uint
	// lineLimit bounds the line addresses both levels' packed tags can
	// represent; see checkLine.
	lineLimit uint64
	clock     uint32
	// fast12 selects the unrolled Access path for the direct-mapped-L1,
	// 2-way-L2 shape (the SVM node hierarchy, the hottest in figure runs).
	// w1arr/w2arr/m1/m2/s1/s2 mirror the levels' fields so that path loads
	// them without chasing the level pointers; the backing arrays are
	// allocated once in New and never reallocated, so the aliases stay
	// valid.
	fast12       bool
	w1arr, w2arr []way
	m1, m2       uint64
	s1, s2       uint

	// fill is the per-page fill filter (nil unless FilterPages attached
	// one): bit g of fill[pg] is set by every L2 fill of a line in group g of
	// page pg and cleared only when InvalidateRange walks the whole group, so
	// a clear bit proves no line of the group is in L2 and, by inclusion,
	// none is in L1. Pages past the slice are never filtered. fillPage is
	// log2(lines per page), fillGroup log2(lines per group), fillMask the
	// number of groups per page less one.
	fill      []uint16
	fillPage  uint
	fillGroup uint
	fillMask  uint64

	// OnL2Evict, when set, is called with the line address and state of
	// every line evicted from L2 by capacity/conflict replacement. The
	// hardware-coherent platforms use it to keep directory/bus sharer
	// state consistent with the caches.
	OnL2Evict func(lineAddr uint64, st State)

	// Stats
	Accesses, L1Misses, L2Misses uint64
}

// New builds a hierarchy from cfg.
func New(cfg Config) *Hierarchy {
	if cfg.Line == 0 || cfg.Line&(cfg.Line-1) != 0 {
		panic("cache: line size must be a power of two")
	}
	h := &Hierarchy{cfg: cfg, lineShift: uint(bits.TrailingZeros(uint(cfg.Line)))}
	h.l1 = newLevel(cfg.L1Size, cfg.L1Assoc, cfg.Line)
	h.l2 = newLevel(cfg.L2Size, cfg.L2Assoc, cfg.Line)
	h.lineLimit = uint64(1) << (min(h.l1.setShift, h.l2.setShift) + tagBits)
	h.fast12 = cfg.L1Assoc == 1 && cfg.L2Assoc == 2
	h.w1arr, h.m1, h.s1 = h.l1.ways, h.l1.setMask, h.l1.setShift
	h.w2arr, h.m2, h.s2 = h.l2.ways, h.l2.setMask, h.l2.setShift
	return h
}

// FilterPages gives the hierarchy a fill filter over pages 0..npages-1 of
// pageSize bytes, so InvalidateRange skips the groups of a page that no
// fill has touched since their last walk. It is sized once, for the page
// platforms' address space; lines of later pages are simply not filtered.
// pageSize must be a power of two no smaller than the line size.
func (h *Hierarchy) FilterPages(pageSize, npages int) {
	if pageSize < h.cfg.Line || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("cache: page size %d is not a power-of-two multiple of the %d B line", pageSize, h.cfg.Line))
	}
	h.fillPage = uint(bits.TrailingZeros(uint(pageSize))) - h.lineShift
	groups := min(uint64(1)<<h.fillPage, fillGroups)
	h.fillGroup = h.fillPage - uint(bits.TrailingZeros64(groups))
	h.fillMask = groups - 1
	h.fill = make([]uint16, npages)
}

// fillGroups is the number of line groups a page's fill word tracks.
const fillGroups = 16

// filled records an L2 fill of line la in the fill filter.
func (h *Hierarchy) filled(la uint64) {
	if pg := la >> (h.fillPage & 63); pg < uint64(len(h.fill)) {
		h.fill[pg] |= 1 << ((la >> (h.fillGroup & 63)) & h.fillMask)
	}
}

// checkLine rejects a line address beyond the packed tags' range: its tag
// would be truncated into another line's, silently corrupting simulated
// state. The panic value is an error naming the address; inside a run the
// kernel returns it as a *sim.ProcPanicError.
func (h *Hierarchy) checkLine(la uint64) {
	if la >= h.lineLimit {
		h.outOfRange(la)
	}
}

//go:noinline
func (h *Hierarchy) outOfRange(la uint64) {
	panic(fmt.Errorf("cache: address %#x is beyond the tag arrays' range (addresses must be below %#x)",
		la<<h.lineShift, h.lineLimit<<h.lineShift))
}

// Line returns the configured line size.
func (h *Hierarchy) Line() int { return h.cfg.Line }

// LineOf returns the line address (addr / line size).
func (h *Hierarchy) LineOf(addr uint64) uint64 { return addr >> h.lineShift }

// Probe reports the level at which the line containing addr currently
// resides and its L2 state, without modifying the cache.
func (h *Hierarchy) Probe(addr uint64) (Level, State) {
	la := addr >> h.lineShift
	h.checkLine(la)
	if _, _, ok := h.l1.lookup(la); ok {
		if b2, w2, ok2 := h.l2.lookup(la); ok2 {
			return L1Hit, h.l2.ways[b2+w2].state()
		}
		return L1Hit, Exclusive
	}
	if b2, w2, ok := h.l2.lookup(la); ok {
		return L2Hit, h.l2.ways[b2+w2].state()
	}
	return Miss, Invalid
}

// scan walks lineAddr's set once, returning the set's base index, the way
// holding lineAddr (hit == -1 when absent) and, for the miss case, the
// insertion victim chosen exactly as insert does: first invalid way, else
// lowest LRU stamp, ties to the lowest way index. The scan stops at a hit,
// like lookup, so LRU observation order is unchanged; victim is only
// meaningful when hit == -1 (the full set was scanned).
func (l *level) scan(lineAddr uint64) (base, hit, victim int) {
	base = int(lineAddr&l.setMask) * l.assoc
	tk := l.tagKey(lineAddr)
	ws := l.ways[base : base+l.assoc]
	victim = -1
	haveInvalid := false
	best := ^uint32(0)
	for w := range ws {
		if ws[w].state() == Invalid {
			if !haveInvalid {
				// First invalid way wins outright, as insert's break does.
				haveInvalid = true
				victim = w
			}
			continue
		}
		if ws[w].key&^stateMask == tk {
			return base, w, -1
		}
		if !haveInvalid && ws[w].lru < best {
			best = ws[w].lru
			victim = w
		}
	}
	if victim < 0 {
		victim = 0 // all valid at the maximum stamp: insert's default
	}
	return base, -1, victim
}

// Access performs a load or store of the line containing addr, updating tag
// and LRU state. fillState is the state a missing line would be installed in
// (used on the hardware platforms; pass Exclusive for SVM). It returns the
// level that satisfied the access and the line's resulting L2 state.
//
// Every simulated memory reference of every application funnels through
// here, so the miss path is fused: each level's hit probe and victim choice
// share one tag-array walk instead of lookup-then-insert walking the set
// twice. The decisions (scan order, first-invalid-else-LRU victim, tie to
// the lowest way) are bit-for-bit those of the unfused path, so simulated
// timing is unchanged.
//
// Coherence upgrades (write to a Shared line) are NOT handled here: the
// caller must Probe first and drive the protocol; Access then applies the
// final state via SetState or by re-filling.
func (h *Hierarchy) Access(addr uint64, write bool, fillState State) (Level, State) {
	if h.fast12 {
		return h.access12(addr, write, fillState)
	}
	return h.accessGeneric(addr, write, fillState)
}

// writeFill is the state a missing line is installed in: a write fills
// Modified whatever the Exclusive or Shared fill state offered.
func writeFill(st State, write bool) State {
	if write && (st == Exclusive || st == Shared) {
		return Modified
	}
	return st
}

// access12 is Access unrolled for a direct-mapped L1 over a 2-way L2 — the
// SVM node hierarchy, which every simulated SVM reference walks. Probe,
// victim choice and back-invalidation are the literal expansions of the
// generic path at assoc 1 and 2, so the two produce identical state.
func (h *Hierarchy) access12(addr uint64, write bool, fillState State) (Level, State) {
	la := addr >> h.lineShift
	h.checkLine(la)
	h.clock++
	h.Accesses++
	// Shift counts are masked (they are < 64) so no over-shift check is
	// compiled into the hottest path.
	sh1, sh2 := h.s1&63, h.s2&63
	t1 := uint32(la>>sh1) << stateBits
	t2 := uint32(la>>sh2) << stateBits
	w1 := &h.w1arr[la&h.m1]
	s2 := h.w2arr[int(la&h.m2)*2:]
	wa := &s2[0]
	wb := &s2[1]
	if w1.holds(t1) {
		// L1 hit; L1 is write-through, so line state lives in L2.
		w1.lru = h.clock
		if wa.holds(t2) {
			wa.lru = h.clock
			if write && wa.state() == Exclusive {
				wa.key = t2 | uint32(Modified)
			}
			return L1Hit, wa.state()
		}
		if wb.holds(t2) {
			wb.lru = h.clock
			if write && wb.state() == Exclusive {
				wb.key = t2 | uint32(Modified)
			}
			return L1Hit, wb.state()
		}
		return L1Hit, Exclusive
	}
	h.L1Misses++
	hit := (*way)(nil)
	if wa.holds(t2) {
		hit = wa
	} else if wb.holds(t2) {
		hit = wb
	}
	if hit != nil {
		hit.lru = h.clock
		if write && hit.state() == Exclusive {
			hit.key = t2 | uint32(Modified)
		}
		st := hit.state()
		*w1 = way{key: t1 | uint32(st), lru: h.clock}
		return L2Hit, st
	}
	h.L2Misses++
	st := writeFill(fillState, write)
	// Victim: first invalid way, else lower LRU stamp, ties to way 0.
	v := wa
	if wa.state() != Invalid && (wb.state() == Invalid || wb.lru < wa.lru) {
		v = wb
	}
	h.filled(la)
	ev, evSt := uint64(v.key>>stateBits)<<sh2|la&h.m2, v.state()
	*v = way{key: t2 | uint32(st), lru: h.clock}
	if evSt != Invalid {
		// Inclusion: a line leaving L2 must also leave L1.
		we := &h.w1arr[ev&h.m1]
		if we.holds(uint32(ev>>sh1) << stateBits) {
			we.key &^= stateMask
		}
		if h.OnL2Evict != nil {
			h.OnL2Evict(ev, evSt)
		}
	}
	// Direct-mapped L1: la's slot is the victim no matter what the eviction
	// callback touched.
	*w1 = way{key: t1 | uint32(st), lru: h.clock}
	return Miss, st
}

func (h *Hierarchy) accessGeneric(addr uint64, write bool, fillState State) (Level, State) {
	la := addr >> h.lineShift
	h.checkLine(la)
	h.clock++
	h.Accesses++
	b1, hit1, vic1 := h.l1.scan(la)
	if hit1 >= 0 {
		h.l1.ways[b1+hit1].lru = h.clock
		// L1 is write-through: line state lives in L2.
		if b2, w2, ok2 := h.l2.lookup(la); ok2 {
			return L1Hit, h.l2.touch(b2+w2, write, h.clock)
		}
		return L1Hit, Exclusive
	}
	h.L1Misses++
	b2, hit2, vic2 := h.l2.scan(la)
	if hit2 >= 0 {
		st := h.l2.touch(b2+hit2, write, h.clock)
		h.l1.ways[b1+vic1] = way{key: h.l1.tagKey(la) | uint32(st), lru: h.clock}
		return L2Hit, st
	}
	h.L2Misses++
	st := writeFill(fillState, write)
	ev, evSt := h.l2.lineAt(b2+vic2), h.l2.ways[b2+vic2].state()
	h.l2.ways[b2+vic2] = way{key: h.l2.tagKey(la) | uint32(st), lru: h.clock}
	h.filled(la)
	if evSt != Invalid {
		// Inclusion: a line leaving L2 must also leave L1. This can free a
		// way in la's own L1 set, so the L1 victim must be re-chosen below
		// rather than taken from the pre-eviction scan.
		if b1, w1, ok := h.l1.lookup(ev); ok {
			h.l1.ways[b1+w1].key &^= stateMask
		}
		if h.OnL2Evict != nil {
			h.OnL2Evict(ev, evSt)
		}
	}
	h.l1.insert(la, st, h.clock)
	return Miss, st
}

// touch stamps the L2 way at index i with clock, applies the silent
// Exclusive->Modified upgrade of a write hit, and returns the way's state.
func (l *level) touch(i int, write bool, clock uint32) State {
	w := &l.ways[i]
	w.lru = clock
	if write && w.state() == Exclusive {
		w.key = w.key&^stateMask | uint32(Modified)
	}
	return w.state()
}

// HitAccess is Probe followed by Access, fused into one tag-array walk, for
// the platforms' FastAccess hot path: it performs the access ONLY if the
// line hits and (for writes) the MESI state grants write permission
// (Modified or Exclusive). On a miss or an insufficient state it mutates
// nothing — not even the LRU clock — exactly as the unfused Probe-then-
// return-false path did, so SlowAccess still performs the one and only
// Access of the reference. The mutations of the hit path (clock, counters,
// LRU stamps, the silent Exclusive->Modified write upgrade) are identical to
// Access's, so fused and unfused runs are cycle-identical.
func (h *Hierarchy) HitAccess(addr uint64, write bool) (Level, State, bool) {
	la := addr >> h.lineShift
	h.checkLine(la)
	if b1, w1, ok := h.l1.lookup(la); ok {
		// L1 hit; authoritative state lives in L2 (write-through L1).
		b2, w2, ok2 := h.l2.lookup(la)
		st := Exclusive
		if ok2 {
			st = h.l2.ways[b2+w2].state()
		}
		if write && st != Modified && st != Exclusive {
			return L1Hit, st, false
		}
		h.clock++
		h.Accesses++
		h.l1.ways[b1+w1].lru = h.clock
		if ok2 {
			return L1Hit, h.l2.touch(b2+w2, write, h.clock), true
		}
		return L1Hit, Exclusive, true
	}
	b2, w2, ok := h.l2.lookup(la)
	if !ok {
		return Miss, Invalid, false
	}
	st := h.l2.ways[b2+w2].state()
	if write && st != Modified && st != Exclusive {
		return L2Hit, st, false
	}
	h.clock++
	h.Accesses++
	h.L1Misses++
	st = h.l2.touch(b2+w2, write, h.clock)
	h.l1.insert(la, st, h.clock)
	return L2Hit, st, true
}

// SetState forces the L2 (and implicitly L1) state of the line containing
// addr; used by the coherence protocols for upgrades and downgrades. A
// transition to Invalid removes the line from both levels.
func (h *Hierarchy) SetState(addr uint64, st State) {
	la := addr >> h.lineShift
	h.checkLine(la)
	h.setLine(la, st)
}

func (h *Hierarchy) setLine(la uint64, st State) {
	if b2, w2, ok := h.l2.lookup(la); ok {
		w := &h.l2.ways[b2+w2]
		w.key = w.key&^stateMask | uint32(st)
	}
	if st == Invalid {
		if b1, w1, ok := h.l1.lookup(la); ok {
			h.l1.ways[b1+w1].key &^= stateMask
		}
	}
}

// Contains reports whether the line containing addr is present (any level).
func (h *Hierarchy) Contains(addr uint64) bool {
	lvl, _ := h.Probe(addr)
	return lvl != Miss
}

// InvalidateRange removes all lines overlapping [addr, addr+n) — used when a
// page is invalidated under the SVM protocol, so stale data cannot be read
// from the cache after a page fetch replaces the page. The range is walked
// a fill-filter group at a time: a group whose bit is clear holds no line
// and is skipped; a walked group that the range covers whole has its bit
// cleared. Without a filter every group is one line and every line is
// walked.
func (h *Hierarchy) InvalidateRange(addr uint64, n int) {
	if n <= 0 {
		return
	}
	la, end := addr>>h.lineShift, (addr+uint64(n)-1)>>h.lineShift+1
	h.checkLine(end - 1)
	span := uint64(1) << h.fillGroup
	for la < end {
		stop := min((la|(span-1))+1, end)
		if pg := la >> (h.fillPage & 63); pg < uint64(len(h.fill)) {
			bit := uint16(1) << ((la >> (h.fillGroup & 63)) & h.fillMask)
			if h.fill[pg]&bit == 0 {
				la = stop
				continue
			}
			if la&(span-1) == 0 && stop-la == span {
				h.fill[pg] &^= bit
			}
		}
		for ; la < stop; la++ {
			h.setLine(la, Invalid)
		}
	}
}

// LinesL2 calls f for every valid line resident in L2, in set/way order
// (deterministic). Platform invariant checkers use it to cross-check cache
// contents against directory or bus sharer state.
func (h *Hierarchy) LinesL2(f func(lineAddr uint64, st State)) {
	for i := range h.l2.ways {
		if st := h.l2.ways[i].state(); st != Invalid {
			f(h.l2.lineAt(i), st)
		}
	}
}

// CheckInclusion verifies the multilevel inclusion property: every valid L1
// line must also be present in L2. Access maintains this by back-invalidating
// L1 on L2 eviction; a violation means a protocol path mutated one level
// without the other.
func (h *Hierarchy) CheckInclusion() error {
	for i := range h.l1.ways {
		st := h.l1.ways[i].state()
		if st == Invalid {
			continue
		}
		la := h.l1.lineAt(i)
		if _, _, ok := h.l2.lookup(la); !ok {
			return fmt.Errorf("cache: L1 line %#x (state %s) not present in L2 (inclusion violated)", la, st)
		}
	}
	return nil
}

// Reset returns the hierarchy to its exact post-New state — cold tag arrays,
// an empty fill filter, zero LRU clock, zero counters — without reallocating
// the way records, so a platform reattaching between runs allocates nothing.
func (h *Hierarchy) Reset() {
	clear(h.l1.ways)
	clear(h.l2.ways)
	clear(h.fill)
	h.clock = 0
	h.Accesses = 0
	h.L1Misses = 0
	h.L2Misses = 0
}
