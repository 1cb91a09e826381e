package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestSpanMatchesFullSize drives a span-bounded hierarchy (NewSpan) and a
// full-size one (New) with one randomized in-span stream of Access,
// HitAccess, SetState and InvalidateRange calls, each with the page fill
// filter the platforms attach, and requires identical results, probes,
// counters, eviction callbacks and L1 and L2 contents throughout, and a
// clean Check on both. The spans run from one page, below the L1's set
// count, through spans between the two levels' set counts, to twice the
// L2, where the bounded hierarchy keeps every set.
func TestSpanMatchesFullSize(t *testing.T) {
	const page = 4096
	for _, sh := range platformShapes {
		for _, pages := range []uint64{1, 3, 9, 75, 2 * uint64(sh.cfg.L2Size) / page} {
			span := pages * page
			t.Run(fmt.Sprintf("%s/%dpages", sh.name, pages), func(t *testing.T) {
				full, bounded := New(sh.cfg), NewSpan(sh.cfg, span)
				for _, h := range []*Hierarchy{full, bounded} {
					h.FilterPages(page, int(pages))
				}
				// The bounded levels keep a set per line of the span, never
				// more than the full level's sets.
				reach := int(span) / sh.cfg.Line
				if want := min(len(full.l2.ways), reach*sh.cfg.L2Assoc); len(bounded.l2.ways) != want {
					t.Errorf("bounded L2 holds %d ways for %d reachable lines, want %d", len(bounded.l2.ways), reach, want)
				}
				if want := min(len(full.l1.slots), reach); len(bounded.l1.slots) != want {
					t.Errorf("bounded L1 holds %d slots for %d reachable lines, want %d", len(bounded.l1.slots), reach, want)
				}
				compareSpanToFull(t, span, full, bounded)
			})
		}
	}
}

func compareSpanToFull(t *testing.T, span uint64, full, bounded *Hierarchy) {
	var evFull, evBounded []string
	full.OnL2Evict = func(la uint64, st State) { evFull = append(evFull, fmt.Sprintf("%#x:%s", la, st)) }
	bounded.OnL2Evict = func(la uint64, st State) { evBounded = append(evBounded, fmt.Sprintf("%#x:%s", la, st)) }
	rng := rand.New(rand.NewSource(int64(span)))
	sameContents := func(i int) {
		t.Helper()
		if got, want := strings.Join(linesL2(bounded), " "), strings.Join(linesL2(full), " "); got != want {
			t.Fatalf("op %d: LinesL2 differs from the full-size hierarchy's", i)
		}
		if got, want := strings.Join(linesL1(bounded), " "), strings.Join(linesL1(full), " "); got != want {
			t.Fatalf("op %d: L1 contents differ from the full-size hierarchy's", i)
		}
		for _, h := range []*Hierarchy{full, bounded} {
			if err := h.Check(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	states := []State{Invalid, Shared, Exclusive, Modified}
	const ops = 50000
	for i := 0; i < ops; i++ {
		a, write := uint64(rng.Int63n(int64(span))), rng.Intn(3) == 0
		var got, want string
		switch op := rng.Intn(10); {
		case op < 6:
			fill := states[1+rng.Intn(3)]
			l1, s1 := bounded.Access(a, write, fill)
			l2, s2 := full.Access(a, write, fill)
			got, want = fmt.Sprint("access ", l1, s1), fmt.Sprint("access ", l2, s2)
		case op < 8:
			l1, s1, ok1 := bounded.HitAccess(a, write)
			l2, s2, ok2 := full.HitAccess(a, write)
			got, want = fmt.Sprint("hit ", l1, s1, ok1), fmt.Sprint("hit ", l2, s2, ok2)
		case op < 9:
			st := states[rng.Intn(4)]
			bounded.SetState(a, st)
			full.SetState(a, st)
		default:
			start, n := a&^4095, uint64(4096)
			if rng.Intn(2) == 0 {
				// Unaligned: up to three pages from a, within the span.
				start, n = a, min(1+uint64(rng.Intn(3*4096)), span-a)
			}
			bounded.InvalidateRange(start, int(n))
			full.InvalidateRange(start, int(n))
		}
		if got != want {
			t.Fatalf("op %d at %#x: bounded %q, full size %q", i, a, got, want)
		}
		bl, bs := bounded.Probe(a)
		if fl, fs := full.Probe(a); bl != fl || bs != fs {
			t.Fatalf("op %d: Probe(%#x) = %v %v, full size %v %v", i, a, bl, bs, fl, fs)
		}
		if bounded.Accesses != full.Accesses || bounded.L1Misses != full.L1Misses || bounded.L2Misses != full.L2Misses {
			t.Fatalf("op %d: counters %d/%d/%d, full size %d/%d/%d", i,
				bounded.Accesses, bounded.L1Misses, bounded.L2Misses, full.Accesses, full.L1Misses, full.L2Misses)
		}
		if !slices.Equal(evBounded, evFull) {
			t.Fatalf("op %d: evictions %v, full size %v", i, evBounded, evFull)
		}
		if i%10000 == 0 {
			sameContents(i)
		}
	}
	sameContents(ops)
}

// A span-bounded hierarchy rejects the first line past its span, at every
// entry point, with the out-of-range error naming the address.
func TestSpanRejectsLinePastSpan(t *testing.T) {
	const span = 3 * 4096
	for _, sh := range platformShapes {
		h := NewSpan(sh.cfg, span)
		for _, op := range []struct {
			name string
			f    func()
		}{
			{"Access", func() { h.Access(span, false, Exclusive) }},
			{"HitAccess", func() { h.HitAccess(span, false) }},
			{"Probe", func() { h.Probe(span) }},
			{"SetState", func() { h.SetState(span, Invalid) }},
			{"InvalidateRange", func() { h.InvalidateRange(span-4096, 4097) }},
		} {
			func() {
				defer func() {
					err, _ := recover().(error)
					if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("address %#x is beyond", span)) {
						t.Errorf("%s: %s past the span: recovered %v, want the out-of-range error naming %#x", sh.name, op.name, err, span)
					}
				}()
				op.f()
			}()
		}
		h.Access(span-1, true, Modified) // the span's last byte is served
	}
}
