package protocol

import (
	"fmt"

	"repro/internal/cache"
)

// LineEntry is the sharing state of one cache line within a coherence
// domain: a bitmask of caching members and the exclusive owner (-1 when
// the line is memory-clean/shared). It is the full-map bookkeeping a
// directory holds in hardware and a snooping bus reconstructs from snoop
// results on every transaction.
type LineEntry struct {
	Sharers uint64
	Owner   int8
}

// LineEngine is the line-grained coherence state machine of one domain: the
// member caches, the line-sharing table, and the StateKind policy deciding
// fill states. It performs the state transitions every interconnect needs —
// claim on write, fill on read, sharer invalidation sweeps, owner
// downgrades — while the interconnect (SnoopBus, Directory) prices them.
//
// Members are domain-relative: for the machine-wide smp/dsm engines the
// member index IS the processor id; for the per-cluster engines of the
// two-level hierarchy it is the processor's index within its cluster.
type LineEngine struct {
	Sts    StateKind
	NP     int // members of this coherence domain
	Caches []*cache.Hierarchy
	// lines is the line table, page-chunked: a directory indexed by
	// la>>chunkShift, grown on demand, whose slots point to chunks of
	// chunkLen entries allocated ownerless on first touch. Entry pointers
	// stay valid for the engine's life because chunks never move.
	lines  []*lineChunk
	lineSz uint64
}

const (
	chunkShift = 6
	chunkLen   = 1 << chunkShift
)

type lineChunk [chunkLen]LineEntry

// NewLineEngine builds an engine of np member caches with the given
// hierarchy configuration, each sized for addresses below span bytes
// (cache.NewSpan), wiring L2 evictions back into the line table (an evicted
// line stops being a sharer; an evicted owner's dirty line conceptually
// writes back to memory).
func NewLineEngine(sts StateKind, cfg cache.Config, span uint64, np int) *LineEngine {
	e := &LineEngine{Sts: sts, NP: np, lineSz: uint64(cfg.Line)}
	e.Caches = make([]*cache.Hierarchy, np)
	for i := 0; i < np; i++ {
		h := cache.NewSpan(cfg, span)
		m := i
		h.OnL2Evict = func(la uint64, st cache.State) {
			if le := e.Lookup(la); le != nil {
				le.Sharers &^= 1 << uint(m)
				if le.Owner == int8(m) {
					le.Owner = -1
				}
			}
		}
		e.Caches[i] = h
	}
	return e
}

// Lookup returns the line entry for la without creating one: nil when no
// line of la's chunk was ever touched. A line never touched in an allocated
// chunk reads as ownerless with no sharers, exactly like a fresh Entry.
func (e *LineEngine) Lookup(la uint64) *LineEntry {
	if ci := la >> chunkShift; ci < uint64(len(e.lines)) {
		if c := e.lines[ci]; c != nil {
			return &c[la&(chunkLen-1)]
		}
	}
	return nil
}

// Entry returns the line entry for la, creating an ownerless one on first
// touch.
func (e *LineEngine) Entry(la uint64) *LineEntry {
	if le := e.Lookup(la); le != nil {
		return le
	}
	ci := la >> chunkShift
	if ci >= uint64(len(e.lines)) {
		e.lines = append(e.lines, make([]*lineChunk, ci+1-uint64(len(e.lines)))...)
	}
	c := new(lineChunk)
	for i := range c {
		c[i].Owner = -1
	}
	e.lines[ci] = c
	return &c[la&(chunkLen-1)]
}

// DropLines resets the entries of lines [lo, hi) to ownerless with no
// sharers, as if never touched.
func (e *LineEngine) DropLines(lo, hi uint64) {
	for la := lo; la < hi; la++ {
		if le := e.Lookup(la); le != nil {
			*le = LineEntry{Owner: -1}
		}
	}
}

// HasLine reports whether member m's cache currently holds the line of addr.
func (e *LineEngine) HasLine(m int, addr uint64) bool {
	lvl, _ := e.Caches[m].Probe(addr)
	return lvl != cache.Miss
}

// InvalidateSharers invalidates every recorded sharer of le except self, in
// ascending member order (part of run determinism), returning how many
// copies were destroyed.
func (e *LineEngine) InvalidateSharers(le *LineEntry, self int, addr uint64) int {
	n := 0
	for q := 0; q < e.NP; q++ {
		if q != self && le.Sharers&(1<<uint(q)) != 0 {
			e.Caches[q].SetState(addr, cache.Invalid)
			n++
		}
	}
	return n
}

// WriteClaim installs member m as the sole Modified owner of addr's line.
// Access applies its fill state only on a miss; on a write UPGRADE the line
// hits in state Shared and would stay Shared, so the owner would keep
// paying upgrade transactions for a line it owns — hence the explicit
// SetState after the access (the write-upgrade bug PR 3 fixed three times
// across the clones, now fixed once).
func (e *LineEngine) WriteClaim(m int, addr uint64, le *LineEntry) {
	le.Sharers = 1 << uint(m)
	le.Owner = int8(m)
	e.Caches[m].Access(addr, true, cache.Modified)
	e.Caches[m].SetState(addr, cache.Modified)
}

// DowngradeOwner makes the current exclusive owner supply the line and drop
// to Shared (the cache-to-cache transfer of a read miss on a dirty line).
func (e *LineEngine) DowngradeOwner(le *LineEntry, addr uint64) {
	e.Caches[le.Owner].SetState(addr, cache.Shared)
	le.Sharers |= 1 << uint(le.Owner)
	le.Owner = -1
}

// ReadFill records member m as a sharer and fills its cache, choosing the
// fill state by the engine's coherence state machine: under MESI a sole
// sharer of an ownerless line fills Exclusive and becomes the owner (so a
// later write upgrades silently); under MSI every read fills Shared.
func (e *LineEngine) ReadFill(m int, addr uint64, le *LineEntry) {
	le.Sharers |= 1 << uint(m)
	fill := cache.Shared
	if e.Sts == MESI && le.Sharers == 1<<uint(m) && le.Owner < 0 {
		fill = cache.Exclusive
		le.Owner = int8(m)
	}
	e.Caches[m].Access(addr, false, fill)
}

// CheckInvariants audits the line table against the member caches — the
// single implementation of the MESI/MSI sharing invariants the clones each
// carried a copy of. scope prefixes every message ("smp", "dsm",
// "svmsmp: cluster 3"). The invariants:
//
//   - an exclusive owner is the ONLY sharer and holds the line Modified or
//     Exclusive in its L2 (under MSI no line is ever Exclusive);
//   - without an owner, every recorded sharer holds the line Shared;
//   - a sharer bit is set if and only if that member's cache holds the line
//     (OnL2Evict keeps the reverse direction, invalidations the forward);
//   - each hierarchy preserves multilevel inclusion.
func (e *LineEngine) CheckInvariants(scope string) error {
	// Walked in address order so a violating run reports the same (lowest)
	// line every time. A never-touched or dropped entry — no sharers, no
	// owner — satisfies every per-line invariant and is skipped.
	for ci, c := range e.lines {
		if c == nil {
			continue
		}
		for j := range c {
			le := &c[j]
			if le.Sharers == 0 && le.Owner < 0 {
				continue
			}
			la := uint64(ci)<<chunkShift | uint64(j)
			if err := e.checkLine(scope, la, le); err != nil {
				return err
			}
		}
	}
	for q := 0; q < e.NP; q++ {
		if err := e.Caches[q].Check(); err != nil {
			return fmt.Errorf("%s: member %d: %w", scope, q, err)
		}
		var lerr error
		e.Caches[q].LinesL2(func(la uint64, st cache.State) {
			if lerr != nil {
				return
			}
			if le := e.Lookup(la); le == nil || le.Sharers&(1<<uint(q)) == 0 {
				lerr = fmt.Errorf("%s: member %d caches line %#x (state %s) unknown to the line table", scope, q, la, st)
			}
		})
		if lerr != nil {
			return lerr
		}
	}
	return nil
}

// checkLine audits one line entry against the member caches.
func (e *LineEngine) checkLine(scope string, la uint64, le *LineEntry) error {
	if e.NP < 64 && le.Sharers>>uint(e.NP) != 0 {
		return fmt.Errorf("%s: line %#x has sharer bits %#x beyond its %d members", scope, la, le.Sharers, e.NP)
	}
	if le.Owner >= 0 {
		if int(le.Owner) >= e.NP {
			return fmt.Errorf("%s: line %#x owned by out-of-range member %d", scope, la, le.Owner)
		}
		if le.Sharers != 1<<uint(le.Owner) {
			return fmt.Errorf("%s: line %#x has owner %d but sharers %#x (owner must be sole sharer)", scope, la, le.Owner, le.Sharers)
		}
	}
	for q := 0; q < e.NP; q++ {
		bit := le.Sharers&(1<<uint(q)) != 0
		holds := e.HasLine(q, la*e.lineSz)
		if bit && !holds {
			return fmt.Errorf("%s: line %#x lists member %d as sharer but its cache lost the line", scope, la, q)
		}
		if !holds {
			continue
		}
		_, st := e.Caches[q].Probe(la * e.lineSz)
		if int(le.Owner) == q {
			if st != cache.Modified && st != cache.Exclusive {
				return fmt.Errorf("%s: line %#x owner %d holds it in state %s, want M or E", scope, la, q, st)
			}
			if e.Sts == MSI && st == cache.Exclusive {
				return fmt.Errorf("%s: line %#x held Exclusive by member %d under MSI (no E state)", scope, la, q)
			}
		} else if bit && st != cache.Shared {
			return fmt.Errorf("%s: line %#x non-owner sharer %d holds it in state %s, want S", scope, la, q, st)
		}
	}
	return nil
}
