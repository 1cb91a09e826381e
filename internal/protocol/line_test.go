package protocol

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// lineTestCfg is small enough that a few hundred lines force L2 evictions,
// so the eviction hook clears entries throughout the differential stream.
var lineTestCfg = cache.Config{L1Size: 1 << 10, L2Size: 4 << 10, L2Assoc: 2, Line: 64}

// refLines is the map-backed line table the page-chunked table replaced,
// kept as the reference model. Its engine supplies member caches and the
// table-independent transitions (ReadFill, WriteClaim, ...); its eviction
// hooks are rewired to the map.
type refLines struct {
	eng   *LineEngine
	lines map[uint64]*LineEntry
}

func newRefLines(np int) *refLines {
	r := &refLines{eng: NewLineEngine(MESI, lineTestCfg, lineTestCfg.Limit(), np), lines: map[uint64]*LineEntry{}}
	for i, h := range r.eng.Caches {
		m := i
		h.OnL2Evict = func(la uint64, st cache.State) {
			if le, ok := r.lines[la]; ok {
				le.Sharers &^= 1 << uint(m)
				if le.Owner == int8(m) {
					le.Owner = -1
				}
			}
		}
	}
	return r
}

func (r *refLines) entry(la uint64) *LineEntry {
	le, ok := r.lines[la]
	if !ok {
		le = &LineEntry{Owner: -1}
		r.lines[la] = le
	}
	return le
}

func (r *refLines) dropLines(lo, hi uint64) {
	for la := lo; la < hi; la++ {
		delete(r.lines, la)
	}
}

// checkInvariants is the sort-the-map-keys audit order of the map table.
func (r *refLines) checkInvariants(scope string) error {
	las := make([]uint64, 0, len(r.lines))
	for la := range r.lines {
		las = append(las, la)
	}
	sort.Slice(las, func(i, j int) bool { return las[i] < las[j] })
	for _, la := range las {
		if err := r.eng.checkLine(scope, la, r.lines[la]); err != nil {
			return err
		}
	}
	for q, h := range r.eng.Caches {
		if err := h.Check(); err != nil {
			return fmt.Errorf("%s: member %d: %w", scope, q, err)
		}
		var lerr error
		h.LinesL2(func(la uint64, st cache.State) {
			if le, ok := r.lines[la]; lerr == nil && (!ok || le.Sharers&(1<<uint(q)) == 0) {
				lerr = fmt.Errorf("%s: member %d caches line %#x (state %s) unknown to the line table", scope, q, la, st)
			}
		})
		if lerr != nil {
			return lerr
		}
	}
	return nil
}

// lineTxn performs member m's access to addr the way a bus machine does: a
// cache hit with sufficient rights is local; anything else is a coherence
// transaction with SnoopBus.SlowLine's transitions on entry(la).
func lineTxn(e *LineEngine, entry func(uint64) *LineEntry, m int, addr uint64, write bool) {
	if _, _, ok := e.Caches[m].HitAccess(addr, write); ok {
		return
	}
	le := entry(addr / e.lineSz)
	remoteOwner := le.Owner >= 0 && int(le.Owner) != m
	switch {
	case write && remoteOwner:
		e.Caches[le.Owner].SetState(addr, cache.Invalid)
		e.WriteClaim(m, addr, le)
	case write:
		e.InvalidateSharers(le, m, addr)
		e.WriteClaim(m, addr, le)
	case remoteOwner:
		e.DowngradeOwner(le, addr)
		e.ReadFill(m, addr, le)
	default:
		e.ReadFill(m, addr, le)
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// fresh reads an entry the way its table's users see it: absent and
// never-touched entries are both ownerless with no sharers.
func fresh(le *LineEntry) LineEntry {
	if le == nil {
		return LineEntry{Owner: -1}
	}
	return *le
}

// TestLineTableMatchesMapReference runs one randomized stream of coherence
// transactions, eviction-hook clears, lookups, page drops (mostly with the
// matching cache invalidation; without it, orphaned cache lines remain) and
// seeded sharer-bit flips against the page-chunked table and the map
// reference, and requires every lookup and every CheckInvariants verdict to
// agree. The line pool spans several chunks, chunk edges and a far region,
// so the directory grows more than once.
func TestLineTableMatchesMapReference(t *testing.T) {
	const np = 4
	line := uint64(lineTestCfg.Line)
	for seed := int64(1); seed <= 4; seed++ {
		e, ref := NewLineEngine(MESI, lineTestCfg, lineTestCfg.Limit(), np), newRefLines(np)
		rng := rand.New(rand.NewSource(seed))
		pickLine := func() uint64 {
			switch rng.Intn(4) {
			case 0:
				return 64 + uint64(rng.Intn(3))*chunkLen - 1 + uint64(rng.Intn(2)) // chunk edges
			case 1:
				return 1<<17 + uint64(rng.Intn(256)) // far, inside lineTestCfg's 16 MiB tag range
			}
			return 64 + uint64(rng.Intn(512))
		}
		verdicts, violations := 0, 0
		for i := 0; i < 20000; i++ {
			la, m := pickLine(), rng.Intn(np)
			addr := la * line
			switch op := rng.Intn(20); {
			case op < 15:
				write := rng.Intn(3) == 0
				lineTxn(e, e.Entry, m, addr, write)
				lineTxn(ref.eng, ref.entry, m, addr, write)
			case op < 17:
				lo := la &^ 31
				if rng.Intn(64) != 0 {
					for q := 0; q < np; q++ {
						e.Caches[q].InvalidateRange(lo*line, int(32*line))
						ref.eng.Caches[q].InvalidateRange(lo*line, int(32*line))
					}
				}
				e.DropLines(lo, lo+32)
				ref.dropLines(lo, lo+32)
			default:
				got, want := e.Lookup(la), ref.lines[la]
				if fresh(got) != fresh(want) {
					t.Fatalf("seed %d op %d: Lookup(%#x) = %+v, reference %+v", seed, i, la, fresh(got), fresh(want))
				}
			}
			if i%50 == 0 {
				// Half the verdicts see one seeded sharer-bit flip, undone
				// right after so violations do not pile up.
				bit := uint64(1) << uint(rng.Intn(np))
				if rng.Intn(2) == 0 {
					bit = 0
				}
				e.Entry(la).Sharers ^= bit
				ref.entry(la).Sharers ^= bit
				got, want := errString(e.CheckInvariants("t")), errString(ref.checkInvariants("t"))
				if got != want {
					t.Fatalf("seed %d op %d: CheckInvariants\n got  %s\n want %s", seed, i, got, want)
				}
				e.Entry(la).Sharers ^= bit
				ref.entry(la).Sharers ^= bit
				verdicts++
				if want != "<nil>" {
					violations++
				}
			}
		}
		// The whole table, both ways round.
		for la, le := range ref.lines {
			if got := e.Lookup(la); fresh(got) != *le {
				t.Fatalf("seed %d: final Lookup(%#x) = %+v, reference %+v", seed, la, fresh(got), *le)
			}
		}
		for ci, c := range e.lines {
			for j := 0; c != nil && j < chunkLen; j++ {
				if la := uint64(ci)<<chunkShift | uint64(j); c[j] != fresh(ref.lines[la]) {
					t.Fatalf("seed %d: final entry %#x = %+v, reference %+v", seed, la, c[j], fresh(ref.lines[la]))
				}
			}
		}
		if violations == 0 || violations == verdicts {
			t.Fatalf("seed %d: %d of %d verdicts were violations; the stream must produce both", seed, violations, verdicts)
		}
	}
}

// CheckInvariants reports the lowest violating line address whatever the
// order the lines were touched in: the determinism the map table got by
// sorting its keys.
func TestCheckInvariantsReportsLowestLine(t *testing.T) {
	for _, pair := range [][2]uint64{{5, 9}, {9, 5}, {3, 5 * chunkLen}, {5 * chunkLen, 3}, {1 << 17, 2 * chunkLen}} {
		e := NewLineEngine(MESI, lineTestCfg, lineTestCfg.Limit(), 2)
		for _, la := range pair {
			e.Entry(la).Sharers = 2 // member 1 listed, but its cache holds nothing
		}
		lo := min(pair[0], pair[1])
		want := fmt.Sprintf("t: line %#x lists member 1 as sharer", lo)
		if err := e.CheckInvariants("t"); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("touch order %v: CheckInvariants = %v, want %q...", pair, err, want)
		}
	}
}

// An address beyond the cache tag arrays' range inside a run reaches the
// caller as a *sim.ProcPanicError whose value is the cache's error naming
// the address, not as a silently aliased line.
func TestAddressBeyondTagRangeFailsRun(t *testing.T) {
	const bad = uint64(1) << 60
	as := mem.NewAddressSpace(4096, 1)
	for _, pl := range []*HW{
		NewBusMachine("smp", MESI, busCfg, as, DefaultBusParams(), 1),
		NewDirMachine("dsm", MESI, dirCfg, as, DefaultDirParams(), 1),
	} {
		k := sim.New(pl, sim.Config{NumProcs: 1})
		_, err := k.RunErr("oob", func(p *sim.Proc) { p.Read(bad) })
		var ppe *sim.ProcPanicError
		if !errors.As(err, &ppe) {
			t.Fatalf("%s: RunErr = %v, want *sim.ProcPanicError", pl.Name(), err)
		}
		if cerr, ok := ppe.Value.(error); !ok || !strings.Contains(cerr.Error(), fmt.Sprintf("%#x", bad)) {
			t.Errorf("%s: panic value %v, want an error naming %#x", pl.Name(), ppe.Value, bad)
		}
	}
}
