// Package cache models a two-level per-processor cache hierarchy with real
// tag arrays, used by all three platform models for local stall accounting
// and (on the hardware-coherent platforms) for MESI line states. The paper's
// configurations: SVM nodes have an 8 KB direct-mapped write-through L1 and a
// 512 KB 2-way L2 with 32 B lines; the DSM nodes a 16 KB L1 and a 1 MB 4-way
// L2 with 64 B lines; the SGI Challenge a 16 KB L1 and 1 MB L2 with 128 B
// lines. Every L1 is direct-mapped, and New accepts no other L1 shape.
//
// Tag-array layout: each level keeps its records in ONE contiguous,
// set-major slice. An L2 way is a 2-byte record that packs the tag (the
// line-address bits above the set index), the way's LRU rank within its set
// (log2(assoc) bits) and the MESI state into one uint16; the direct-mapped
// L1 keeps 4-byte slots of tag and state: it has few sets, so its tags need
// the wider record. Every simulated memory reference of every application
// flows through these arrays, so this layout is the simulator's hottest data
// structure: a probe is one predictable indexed load per way, thirty-two L2
// ways share one host cache line, and each level is one allocation. The
// ranks keep exact LRU order, so hits, victims and evictions are bit-for-bit
// those of the earlier layouts and simulated timing is unchanged. A line
// address whose tag does not fit its record is rejected with a panic
// carrying an error, never truncated into an alias of another line;
// Config.Limit gives the range, so a platform can refuse an address space
// that exceeds it before a run.
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

// Config describes a two-level hierarchy over a direct-mapped L1. Sizes in
// bytes; all powers of two.
type Config struct {
	L1Size  int
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

// way is one 2-byte L2 tag-array record: tag<<(stateBits+rb) |
// rank<<stateBits | state, where rb = log2(assoc) is the level's rank width
// and the tag is the line address with its set-index bits shifted out. An
// Invalid way (state 0) keeps its stale tag and its rank but never matches.
//
// The ranks order a set's ways by last touch (a fill or a hit), the most
// recent at rank 0. Touching a way adds 1 to every other way of its set
// ranked at or below it and gives it rank 0. From the all-zero start (New,
// Reset) the t ways touched so far therefore hold ranks 0..t-1 and the
// untouched rest hold t. A valid way has been filled, so a set whose ways are
// all valid holds a permutation, and its rank assoc-1 is the least recently
// touched way.
type way struct {
	key uint16
}

const (
	stateBits = 2
	stateMask = 1<<stateBits - 1
	// rank1 is rank 1 of a 2-way set, which is its whole rank field.
	rank1 = 1 << stateBits
	// wayBits and slotBits are the widths of an L2 way's and an L1 slot's
	// record.
	wayBits  = 16
	slotBits = 32
)

func (w *way) state() State { return State(w.key & stateMask) }

// holds reports whether w is valid and carries tag key tk (rank and state
// bits 0) in a level whose rank field is rm: with the rank masked out,
// key^tk is then the state, 1..3, so one unsigned compare decides both.
func (w *way) holds(tk, rm uint16) bool {
	return (w.key&^rm^tk)-1 < stateMask
}

// hitState applies the silent Exclusive->Modified upgrade of a write hit and
// returns the way's resulting state.
func (w *way) hitState(write bool) State {
	if write && w.state() == Exclusive {
		w.key = w.key&^stateMask | uint16(Modified)
	}
	return w.state()
}

// slot is one 4-byte record of the direct-mapped L1: tag<<stateBits |
// state, with no rank. The L1 has few sets, so 2-byte slots would bound the
// address space far below the L2's (at 128 MiB on the svm node), while its
// whole array is only 1-4 KB.
type slot struct {
	key uint32
}

func (s *slot) state() State { return State(s.key & stateMask) }

// holds reports whether s is valid and carries tag key tk (state bits 0).
func (s *slot) holds(tk uint32) bool {
	return (s.key^tk)-1 < stateMask
}

// l1Level is the direct-mapped L1: one slot per set.
type l1Level struct {
	slots    []slot
	setMask  uint64
	setShift uint // log2(nSets) < 64: the tag is lineAddr >> setShift
}

// lineAt reconstructs the line address held by slot i from its tag and set.
func (l *l1Level) lineAt(i int) uint64 {
	return uint64(l.slots[i].key>>stateBits)<<(l.setShift&63) | uint64(i)
}

// level is the L2: nSets*assoc ways, set-major — set si occupies
// ways[si*assoc : (si+1)*assoc].
type level struct {
	ways     []way
	setMask  uint64
	setShift uint   // log2(nSets) < 64: the tag is lineAddr >> setShift
	tagShift uint   // stateBits + log2(assoc): the tag's place in a key
	rankMask uint16 // the rank field of a key; 0 when direct-mapped
	assoc    int
}

// sets returns the power-of-two number of assoc-way sets of line-byte lines
// in size bytes, or panics with an error naming the Config field.
func sets(field string, size, assoc, line int) int {
	nSets := size / line / assoc
	if !pow2(nSets) {
		panic(configError(field, size, fmt.Sprintf("a power-of-two number of %d-way sets of %d B lines", assoc, line)))
	}
	return nSets
}

func newL1(size, line int) l1Level {
	nSets := sets("L1Size", size, 1, line)
	return l1Level{
		slots:    make([]slot, nSets),
		setMask:  uint64(nSets - 1),
		setShift: uint(bits.TrailingZeros(uint(nSets))),
	}
}

func newLevel(size, assoc, line int) level {
	nSets := sets("L2Size", size, assoc, line)
	return level{
		ways:     make([]way, nSets*assoc),
		assoc:    assoc,
		setMask:  uint64(nSets - 1),
		setShift: uint(bits.TrailingZeros(uint(nSets))),
		tagShift: stateBits + uint(bits.TrailingZeros(uint(assoc))),
		rankMask: uint16(assoc-1) << stateBits,
	}
}

// tagKey returns lineAddr's packed key with the rank and state bits clear.
// The caller has checked lineAddr against the hierarchy's lineLimit, so no
// tag bit is lost.
func (l *level) tagKey(lineAddr uint64) uint16 {
	return uint16(lineAddr>>(l.setShift&63)) << (l.tagShift & 15)
}

// lineAt reconstructs the line address held by way i from its tag and set.
func (l *level) lineAt(i int) uint64 {
	return uint64(l.ways[i].key>>(l.tagShift&15))<<(l.setShift&63) | uint64(i/l.assoc)
}

// lookup returns the base index of lineAddr's set and the way index holding
// it (wi == -1 when absent).
func (l *level) lookup(lineAddr uint64) (base, wi int, ok bool) {
	base = int(lineAddr&l.setMask) * l.assoc
	tk, rm := l.tagKey(lineAddr), l.rankMask
	ws := l.ways[base : base+l.assoc]
	for w := range ws {
		if ws[w].holds(tk, rm) {
			return base, w, true
		}
	}
	return base, -1, false
}

// scan walks lineAddr's set once, returning the set's base index, the way
// holding lineAddr (hit == -1 when absent) and, for the miss case, the
// victim: the first invalid way, else the least recently used (rank
// assoc-1). victim is only meaningful when hit == -1.
func (l *level) scan(lineAddr uint64) (base, hit, victim int) {
	base = int(lineAddr&l.setMask) * l.assoc
	tk, rm := l.tagKey(lineAddr), l.rankMask
	ws := l.ways[base : base+l.assoc]
	invalid, oldest := -1, -1
	for w := range ws {
		switch k := ws[w].key; {
		case ws[w].holds(tk, rm):
			return base, w, -1
		case k&stateMask == uint16(Invalid):
			if invalid < 0 {
				invalid = w
			}
		case k&rm == rm:
			oldest = w
		}
	}
	if invalid >= 0 {
		return base, -1, invalid
	}
	return base, -1, oldest
}

// touch records a touch of way w of the set at base: every other way ranked
// at or below w moves down one rank and w takes rank 0. w's own rank is
// never incremented: at assoc-1 that would carry into the tag.
func (l *level) touch(base, w int) {
	ws := l.ways[base : base+l.assoc]
	rm := l.rankMask
	r := ws[w].key & rm
	for i := range ws {
		if i != w && ws[i].key&rm <= r {
			ws[i].key += 1 << stateBits
		}
	}
	ws[w].key &^= rm
}

// hit touches the valid way w of the set at base and applies a write hit's
// upgrade, returning the way's state. A valid way has been touched, so at
// rank 0 it is already the most recent and the touch changes nothing.
func (l *level) hit(base, w int, write bool) State {
	if l.ways[base+w].key&l.rankMask != 0 {
		l.touch(base, w)
	}
	return l.ways[base+w].hitState(write)
}

// Hierarchy is one processor's L1+L2.
type Hierarchy struct {
	cfg       Config
	l1        l1Level
	l2        level
	lineShift uint
	// lineLimit bounds the line addresses both levels' packed tags can
	// represent; see checkLine.
	lineLimit uint64
	// fast12 selects the unrolled Access path for a 2-way L2 (the SVM node
	// hierarchy, the hottest in figure runs).
	fast12 bool

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

// New builds a hierarchy from cfg. A shape it cannot model — a line size or
// L2 associativity that is not a power of two, a level whose set count is
// not a power of two — panics with an error naming the Config field.
func New(cfg Config) *Hierarchy {
	switch {
	case !pow2(cfg.Line):
		panic(configError("Line", cfg.Line, "a power of two"))
	case !pow2(cfg.L2Assoc):
		panic(configError("L2Assoc", cfg.L2Assoc, "a power of two"))
	}
	h := &Hierarchy{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.Line))),
		l1:        newL1(cfg.L1Size, cfg.Line),
		l2:        newLevel(cfg.L2Size, cfg.L2Assoc, cfg.Line),
		fast12:    cfg.L2Assoc == 2,
	}
	h.lineLimit = cfg.Limit() >> h.lineShift
	return h
}

// Limit is the first byte address beyond the range cfg's tag arrays can
// hold. A level with 2^s sets keeps the line-address bits above its set
// index in a record of w bits, of which stateBits+log2(assoc) go to state
// and rank, so it holds line addresses below 2^(s + w - stateBits -
// log2(assoc)). Limit is the smaller bound of the two levels, in bytes; the
// L2's 2-byte ways set it for every preset (2 GiB on the svm node, 1 GiB on
// the DASH node, 16 GiB on the Challenge). cfg must be a shape New accepts.
func (cfg Config) Limit() uint64 {
	bound := func(size, assoc, recBits int) uint64 {
		return uint64(size/cfg.Line/assoc) << (recBits - stateBits - bits.TrailingZeros(uint(assoc)))
	}
	return min(bound(cfg.L1Size, 1, slotBits), bound(cfg.L2Size, cfg.L2Assoc, wayBits)) * uint64(cfg.Line)
}

func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// configError is New's panic value for a Config it cannot model.
func configError(field string, v int, want string) error {
	return fmt.Errorf("cache: Config.%s = %d, want %s", field, v, want)
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

// fillBit returns line la's page and its group's bit in that page's fill
// word; the page is filtered when it is below len(h.fill).
func (h *Hierarchy) fillBit(la uint64) (uint64, uint16) {
	return la >> (h.fillPage & 63), 1 << ((la >> (h.fillGroup & 63)) & h.fillMask)
}

// filled records an L2 fill of line la in the fill filter.
func (h *Hierarchy) filled(la uint64) {
	if pg, bit := h.fillBit(la); pg < uint64(len(h.fill)) {
		h.fill[pg] |= bit
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

// LineOf returns the line address (addr / line size).
func (h *Hierarchy) LineOf(addr uint64) uint64 { return addr >> h.lineShift }

// slot1 returns line la's L1 slot and la's L1 tag key. The L1 is
// direct-mapped, so its keys have no rank field.
func (h *Hierarchy) slot1(la uint64) (*slot, uint32) {
	return &h.l1.slots[la&h.l1.setMask], uint32(la>>(h.l1.setShift&63)) << stateBits
}

// Probe reports the level at which the line containing addr currently
// resides and its L2 state, without modifying the cache.
func (h *Hierarchy) Probe(addr uint64) (Level, State) {
	la := addr >> h.lineShift
	h.checkLine(la)
	w1, t1 := h.slot1(la)
	in1 := w1.holds(t1)
	b2, w2, in2 := h.l2.lookup(la)
	switch {
	case in1 && in2:
		return L1Hit, h.l2.ways[b2+w2].state()
	case in1:
		return L1Hit, Exclusive
	case in2:
		return L2Hit, h.l2.ways[b2+w2].state()
	}
	return Miss, Invalid
}

// Access performs a load or store of the line containing addr, updating tag
// and LRU state. fillState is the state a missing line would be installed in
// (used on the hardware platforms; pass Exclusive for SVM). It returns the
// level that satisfied the access and the line's resulting L2 state.
//
// Every simulated memory reference of every application funnels through
// here, so the miss path is fused: the L2 hit probe and victim choice share
// one tag-array walk.
//
// Coherence upgrades (write to a Shared line) are NOT handled here: the
// caller must Probe first and drive the protocol; Access then applies the
// final state via SetState or by re-filling.
func (h *Hierarchy) Access(addr uint64, write bool, fillState State) (Level, State) {
	if h.fast12 {
		return h.access12(addr, write, fillState)
	}
	return h.accessN(addr, write, fillState)
}

// writeFill is the state a missing line is installed in: a write fills
// Modified whatever the Exclusive or Shared fill state offered.
func writeFill(st State, write bool) State {
	if write && (st == Exclusive || st == Shared) {
		return Modified
	}
	return st
}

// touch2 is level.touch unrolled for a 2-way set: the touched way takes
// rank 0 and the other rank 1, stored only when that changes a rank.
func touch2(hit, other *way) {
	if other.key&rank1 == 0 {
		hit.key &^= rank1
		other.key |= rank1
	}
}

// access12 is Access unrolled for a direct-mapped L1 over a 2-way L2 — the
// SVM node hierarchy, which every simulated SVM reference walks. Probe,
// ranks, victim choice and back-invalidation are the literal expansions of
// accessN at assoc 2, so the two produce identical state.
func (h *Hierarchy) access12(addr uint64, write bool, fillState State) (Level, State) {
	la := addr >> h.lineShift
	h.checkLine(la)
	h.Accesses++
	w1, t1 := h.slot1(la)
	s2 := h.l2.ways[int(la&h.l2.setMask)*2:]
	wa, wb := &s2[0], &s2[1]
	t2 := uint16(la>>(h.l2.setShift&63)) << (stateBits + 1)
	hit, other := (*way)(nil), (*way)(nil)
	if wa.holds(t2, rank1) {
		hit, other = wa, wb
	} else if wb.holds(t2, rank1) {
		hit, other = wb, wa
	}
	if w1.holds(t1) {
		// L1 hit; L1 is write-through, so line state lives in L2.
		if hit == nil {
			return L1Hit, Exclusive
		}
		touch2(hit, other)
		return L1Hit, hit.hitState(write)
	}
	h.L1Misses++
	if hit != nil {
		touch2(hit, other)
		st := hit.hitState(write)
		*w1 = slot{t1 | uint32(st)}
		return L2Hit, st
	}
	h.L2Misses++
	st := writeFill(fillState, write)
	// Victim: first invalid way, else the one at rank 1.
	v, o := wa, wb
	if wa.state() != Invalid && (wb.state() == Invalid || wb.key&rank1 != 0) {
		v, o = wb, wa
	}
	h.filled(la)
	ev, evSt := uint64(v.key>>(stateBits+1))<<(h.l2.setShift&63)|la&h.l2.setMask, v.state()
	*v = way{t2 | uint16(st)}
	o.key |= rank1
	if evSt != Invalid {
		// Inclusion: a line leaving L2 must also leave L1.
		h.dropL1(ev)
		if h.OnL2Evict != nil {
			h.OnL2Evict(ev, evSt)
		}
	}
	// Direct-mapped L1: la's slot is the victim no matter what the eviction
	// callback touched.
	*w1 = slot{t1 | uint32(st)}
	return Miss, st
}

// accessN is Access for a direct-mapped L1 over an L2 of any associativity.
func (h *Hierarchy) accessN(addr uint64, write bool, fillState State) (Level, State) {
	la := addr >> h.lineShift
	h.checkLine(la)
	h.Accesses++
	w1, t1 := h.slot1(la)
	if w1.holds(t1) {
		// L1 is write-through: line state lives in L2.
		if b2, w2, ok := h.l2.lookup(la); ok {
			return L1Hit, h.l2.hit(b2, w2, write)
		}
		return L1Hit, Exclusive
	}
	h.L1Misses++
	b2, hit2, vic2 := h.l2.scan(la)
	if hit2 >= 0 {
		st := h.l2.hit(b2, hit2, write)
		*w1 = slot{t1 | uint32(st)}
		return L2Hit, st
	}
	h.L2Misses++
	st := writeFill(fillState, write)
	ev, evSt := h.l2.lineAt(b2+vic2), h.l2.ways[b2+vic2].state()
	h.l2.touch(b2, vic2)
	h.l2.ways[b2+vic2] = way{h.l2.tagKey(la) | uint16(st)}
	h.filled(la)
	if evSt != Invalid {
		// Inclusion: a line leaving L2 must also leave L1.
		h.dropL1(ev)
		if h.OnL2Evict != nil {
			h.OnL2Evict(ev, evSt)
		}
	}
	*w1 = slot{t1 | uint32(st)}
	return Miss, st
}

// dropL1 invalidates line la's L1 copy, if there is one.
func (h *Hierarchy) dropL1(la uint64) {
	if w, t := h.slot1(la); w.holds(t) {
		w.key &^= stateMask
	}
}

// HitAccess is Probe followed by Access, fused into one tag-array walk, for
// the platforms' FastAccess hot path: it performs the access ONLY if the
// line hits and (for writes) the MESI state grants write permission
// (Modified or Exclusive). On a miss or an insufficient state it mutates
// nothing, so SlowAccess still performs the one and only Access of the
// reference. The mutations of the hit path (counters, L2 ranks, the L1 fill
// of an L2 hit, the silent Exclusive->Modified write upgrade) are identical
// to Access's, so fused and unfused runs are cycle-identical.
func (h *Hierarchy) HitAccess(addr uint64, write bool) (Level, State, bool) {
	la := addr >> h.lineShift
	h.checkLine(la)
	w1, t1 := h.slot1(la)
	b2, w2, in2 := h.l2.lookup(la)
	lvl, st := L1Hit, Exclusive
	if !w1.holds(t1) {
		if !in2 {
			return Miss, Invalid, false
		}
		lvl = L2Hit
	}
	if in2 {
		// Authoritative state lives in L2 (write-through L1).
		st = h.l2.ways[b2+w2].state()
	}
	if write && st != Modified && st != Exclusive {
		return lvl, st, false
	}
	h.Accesses++
	if in2 {
		st = h.l2.hit(b2, w2, write)
	}
	if lvl == L2Hit {
		h.L1Misses++
		*w1 = slot{t1 | uint32(st)}
	}
	return lvl, st, true
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
		w.key = w.key&^stateMask | uint16(st)
	}
	if st == Invalid {
		h.dropL1(la)
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
		if pg, bit := h.fillBit(la); pg < uint64(len(h.fill)) {
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

// Check audits the hierarchy and returns an error naming the first fault:
//
//   - inclusion: every valid L1 line is present in L2. Access keeps it by
//     back-invalidating L1 on L2 eviction; the coherence protocols and
//     InvalidateRange's group skip rely on it;
//   - ranks: in every L2 set the t ways touched since Reset hold distinct
//     ranks 0..t-1, the untouched rest hold t, and no valid way is among
//     the untouched, so a full set holds a permutation and its LRU victim
//     is the way at rank assoc-1;
//   - fill filter: every L2-resident line on a filtered page has its
//     group's bit set, which is what makes skipping a clear group sound.
//
// A fault means some path mutated one level or the filter outside the rules
// Access, SetState and InvalidateRange keep.
func (h *Hierarchy) Check() error {
	for i := range h.l1.slots {
		if st := h.l1.slots[i].state(); st != Invalid {
			la := h.l1.lineAt(i)
			if _, _, ok := h.l2.lookup(la); !ok {
				return fmt.Errorf("cache: L1 line %#x (state %s) not present in L2 (inclusion violated)", la, st)
			}
		}
	}
	if err := h.l2.checkRanks(); err != nil {
		return err
	}
	for i := range h.l2.ways {
		if h.l2.ways[i].state() == Invalid {
			continue
		}
		la := h.l2.lineAt(i)
		if pg, bit := h.fillBit(la); pg < uint64(len(h.fill)) && h.fill[pg]&bit == 0 {
			return fmt.Errorf("cache: L2 line %#x is resident but its fill-filter group bit %#x on page %d is clear", la, bit, pg)
		}
	}
	return nil
}

// checkRanks verifies the rank invariant (see way) of every set of l.
func (l *level) checkRanks() error {
	held := make([]int, l.assoc) // held[r] counts a set's ways at rank r
	for base := 0; base < len(l.ways); base += l.assoc {
		ws := l.ways[base : base+l.assoc]
		clear(held)
		for i := range ws {
			held[(ws[i].key&l.rankMask)>>stateBits]++
		}
		t := 0 // the ways touched since Reset
		for t < l.assoc && held[t] == 1 {
			t++
		}
		if t == l.assoc {
			continue
		}
		if held[t] != l.assoc-t {
			return fmt.Errorf("cache: L2 set %d has rank counts %v, not an LRU order", base/l.assoc, held)
		}
		for i := range ws {
			if ws[i].state() != Invalid && (ws[i].key&l.rankMask)>>stateBits == uint16(t) {
				return fmt.Errorf("cache: L2 set %d: valid way %d holds rank %d, shared by the never-touched ways", base/l.assoc, i, t)
			}
		}
	}
	return nil
}

// Reset returns the hierarchy to its exact post-New state — all-zero tag
// arrays (every set cold, no way touched), an empty fill filter, zero
// counters — without reallocating the way records, so a platform
// reattaching between runs allocates nothing.
func (h *Hierarchy) Reset() {
	clear(h.l1.slots)
	clear(h.l2.ways)
	clear(h.fill)
	h.Accesses = 0
	h.L1Misses = 0
	h.L2Misses = 0
}
