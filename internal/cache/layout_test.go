package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// refHierarchy is the tag-array layout that preceded the packed 8-byte ways:
// 16-byte records holding the full line address, the LRU stamp and the
// state, driven by the plain lookup-then-insert path. It is kept here only
// as the reference the packed layout must match operation for operation.
type refWay struct {
	tag uint64
	lru uint32
	st  State
}

type refLevel struct {
	ways    []refWay
	setMask uint64
	assoc   int
}

func newRefLevel(size, assoc, line int) *refLevel {
	nSets := size / line / assoc
	return &refLevel{ways: make([]refWay, nSets*assoc), setMask: uint64(nSets - 1), assoc: assoc}
}

func (l *refLevel) lookup(la uint64) (*refWay, bool) {
	base := int(la&l.setMask) * l.assoc
	for w := base; w < base+l.assoc; w++ {
		if l.ways[w].st != Invalid && l.ways[w].tag == la {
			return &l.ways[w], true
		}
	}
	return nil, false
}

func (l *refLevel) insert(la uint64, st State, clock uint32) (evicted uint64, evState State) {
	base := int(la&l.setMask) * l.assoc
	victim := base
	best := ^uint32(0)
	for w := base; w < base+l.assoc; w++ {
		if l.ways[w].st == Invalid {
			victim = w
			break
		}
		if l.ways[w].lru < best {
			best = l.ways[w].lru
			victim = w
		}
	}
	v := &l.ways[victim]
	if v.st != Invalid {
		evicted, evState = v.tag, v.st
	}
	*v = refWay{tag: la, lru: clock, st: st}
	return evicted, evState
}

type refHierarchy struct {
	l1, l2    *refLevel
	lineShift uint
	line      uint64
	clock     uint32
	onEvict   func(la uint64, st State)

	accesses, l1Misses, l2Misses uint64
}

func newRef(cfg Config) *refHierarchy {
	h := &refHierarchy{
		l1:   newRefLevel(cfg.L1Size, 1, cfg.Line),
		l2:   newRefLevel(cfg.L2Size, cfg.L2Assoc, cfg.Line),
		line: uint64(cfg.Line),
	}
	for 1<<h.lineShift != cfg.Line {
		h.lineShift++
	}
	return h
}

func (h *refHierarchy) probe(addr uint64) (Level, State) {
	la := addr >> h.lineShift
	if _, ok := h.l1.lookup(la); ok {
		if w, ok2 := h.l2.lookup(la); ok2 {
			return L1Hit, w.st
		}
		return L1Hit, Exclusive
	}
	if w, ok := h.l2.lookup(la); ok {
		return L2Hit, w.st
	}
	return Miss, Invalid
}

func (h *refHierarchy) access(addr uint64, write bool, fill State) (Level, State) {
	h.clock++
	h.accesses++
	la := addr >> h.lineShift
	if w1, ok := h.l1.lookup(la); ok {
		w1.lru = h.clock
		if w, ok2 := h.l2.lookup(la); ok2 {
			w.lru = h.clock
			if write && w.st == Exclusive {
				w.st = Modified
			}
			return L1Hit, w.st
		}
		return L1Hit, Exclusive
	}
	h.l1Misses++
	if w, ok := h.l2.lookup(la); ok {
		w.lru = h.clock
		if write && w.st == Exclusive {
			w.st = Modified
		}
		h.l1.insert(la, w.st, h.clock)
		return L2Hit, w.st
	}
	h.l2Misses++
	st := fill
	if write && (st == Exclusive || st == Shared) {
		st = Modified
	}
	if ev, evSt := h.l2.insert(la, st, h.clock); evSt != Invalid {
		if w1, ok := h.l1.lookup(ev); ok {
			w1.st = Invalid
		}
		if h.onEvict != nil {
			h.onEvict(ev, evSt)
		}
	}
	h.l1.insert(la, st, h.clock)
	return Miss, st
}

// hitAccess is the unfused Probe-then-Access the fused HitAccess replaced.
func (h *refHierarchy) hitAccess(addr uint64, write bool) (Level, State, bool) {
	lvl, st := h.probe(addr)
	if lvl == Miss {
		return Miss, Invalid, false
	}
	if write && st != Modified && st != Exclusive {
		return lvl, st, false
	}
	lvl, st = h.access(addr, write, st)
	return lvl, st, true
}

func (h *refHierarchy) setState(addr uint64, st State) {
	la := addr >> h.lineShift
	if w, ok := h.l2.lookup(la); ok {
		w.st = st
	}
	if w1, ok := h.l1.lookup(la); ok && st == Invalid {
		w1.st = Invalid
	}
}

func (h *refHierarchy) invalidateRange(addr uint64, n int) {
	for a := addr &^ (h.line - 1); a < addr+uint64(n); a += h.line {
		h.setState(a, Invalid)
	}
}

func (h *refHierarchy) linesL2() []string {
	var out []string
	for _, w := range h.l2.ways {
		if w.st != Invalid {
			out = append(out, fmt.Sprintf("%#x:%s", w.tag, w.st))
		}
	}
	return out
}

func (h *refHierarchy) linesL1() []string {
	var out []string
	for _, w := range h.l1.ways {
		if w.st != Invalid {
			out = append(out, fmt.Sprintf("%#x", w.tag))
		}
	}
	return out
}

func linesL1(h *Hierarchy) []string {
	var out []string
	for i := range h.l1.slots {
		if h.l1.slots[i].state() != Invalid {
			out = append(out, fmt.Sprintf("%#x", h.l1.lineAt(i)))
		}
	}
	return out
}

func linesL2(h *Hierarchy) []string {
	var out []string
	h.LinesL2(func(la uint64, st State) { out = append(out, fmt.Sprintf("%#x:%s", la, st)) })
	return out
}

// The three platform shapes (restated here: the platform packages import
// this one). svm's 1-way/2-way shape takes the unrolled access12 path; the
// others take the generic path.
var platformShapes = []struct {
	name string
	cfg  Config
}{
	{"svm", Config{L1Size: 8 << 10, L2Size: 512 << 10, L2Assoc: 2, Line: 32}},
	{"dsm", Config{L1Size: 16 << 10, L2Size: 1 << 20, L2Assoc: 4, Line: 64}},
	{"smp", Config{L1Size: 16 << 10, L2Size: 1 << 20, L2Assoc: 1, Line: 128}},
}

// TestPackedLayoutMatchesReference drives the packed tag arrays and the
// 16-byte reference layout with one randomized stream of Access, HitAccess,
// SetState and InvalidateRange calls and requires identical results,
// counters, eviction callbacks and L1 and L2 contents throughout. Addresses
// mix a hot set, a region twice the L2 size, same-set conflict strides and a
// region just below the packed tags' range, so the top tag bits are
// exercised too. Each shape also runs with a page fill filter over the
// first filterPages pages (128 lines per page on svm, 64 on dsm, 32 on smp
// and svmsmp), so InvalidateRange skips groups on filtered pages and walks
// every line of the rest; its ranges are whole pages or unaligned spans
// that start and end inside a group.
func TestPackedLayoutMatchesReference(t *testing.T) {
	const filterPages = 1024
	for _, sh := range platformShapes {
		for _, filtered := range []bool{false, true} {
			name := sh.name
			if filtered {
				name += "/filtered"
			}
			t.Run(name, func(t *testing.T) {
				h, ref := New(sh.cfg), newRef(sh.cfg)
				if filtered {
					h.FilterPages(4096, filterPages)
				}
				comparePackedToReference(t, sh.name, sh.cfg, h, ref)
			})
		}
	}
}

func comparePackedToReference(t *testing.T, shape string, cfg Config, h *Hierarchy, ref *refHierarchy) {
	if got, want := h.fast12, shape == "svm"; got != want {
		t.Fatalf("fast12 = %v, want %v", got, want)
	}
	var evGot, evWant []string
	h.OnL2Evict = func(la uint64, st State) { evGot = append(evGot, fmt.Sprintf("%#x:%s", la, st)) }
	ref.onEvict = func(la uint64, st State) { evWant = append(evWant, fmt.Sprintf("%#x:%s", la, st)) }

	line := uint64(cfg.Line)
	top := h.lineLimit << h.lineShift
	setSpan := uint64(cfg.L2Size / cfg.L2Assoc)
	rng := rand.New(rand.NewSource(1))
	addr := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return 4096 + uint64(rng.Intn(16<<10))
		case 1:
			return 4096 + uint64(rng.Intn(2*cfg.L2Size))
		case 2:
			return 4096 + uint64(rng.Intn(8))*setSpan + uint64(rng.Intn(4))*line
		}
		return top - uint64(1+rng.Intn(2*cfg.L2Size))
	}
	sameContents := func(i int) {
		t.Helper()
		if got, want := strings.Join(linesL2(h), " "), strings.Join(ref.linesL2(), " "); got != want {
			t.Fatalf("op %d: LinesL2 differs from the reference", i)
		}
		if got, want := strings.Join(linesL1(h), " "), strings.Join(ref.linesL1(), " "); got != want {
			t.Fatalf("op %d: L1 contents differ from the reference", i)
		}
	}
	states := []State{Invalid, Shared, Exclusive, Modified}
	for i := 0; i < 200000; i++ {
		a, write := addr(), rng.Intn(3) == 0
		var got, want string
		switch op := rng.Intn(10); {
		case op < 6:
			fill := states[1+rng.Intn(3)]
			l1, s1 := h.Access(a, write, fill)
			l2, s2 := ref.access(a, write, fill)
			got, want = fmt.Sprint("access ", l1, s1), fmt.Sprint("access ", l2, s2)
		case op < 8:
			l1, s1, ok1 := h.HitAccess(a, write)
			l2, s2, ok2 := ref.hitAccess(a, write)
			got, want = fmt.Sprint("hit ", l1, s1, ok1), fmt.Sprint("hit ", l2, s2, ok2)
		case op < 9:
			st := states[rng.Intn(4)]
			h.SetState(a, st)
			ref.setState(a, st)
		default:
			start, n := a&^4095, uint64(4096)
			if rng.Intn(2) == 0 {
				// Unaligned: up to three pages from a, within the tags' range.
				start, n = a, min(1+uint64(rng.Intn(3*4096)), top-a)
			}
			h.InvalidateRange(start, int(n))
			ref.invalidateRange(start, int(n))
		}
		if got != want {
			t.Fatalf("op %d at %#x: packed %q, reference %q", i, a, got, want)
		}
		pl, ps := h.Probe(a)
		if rl, rs := ref.probe(a); pl != rl || ps != rs {
			t.Fatalf("op %d: Probe(%#x) = %v %v, reference %v %v", i, a, pl, ps, rl, rs)
		}
		if h.Accesses != ref.accesses || h.L1Misses != ref.l1Misses || h.L2Misses != ref.l2Misses {
			t.Fatalf("op %d: counters %d/%d/%d, reference %d/%d/%d", i,
				h.Accesses, h.L1Misses, h.L2Misses, ref.accesses, ref.l1Misses, ref.l2Misses)
		}
		if len(evGot) != len(evWant) || len(evGot) > 0 && evGot[len(evGot)-1] != evWant[len(evWant)-1] {
			t.Fatalf("op %d: evictions %v, reference %v", i, evGot, evWant)
		}
		if i%20000 == 0 {
			if err := h.Check(); err != nil {
				t.Fatal(err)
			}
			sameContents(i)
		}
	}
	sameContents(200000)
	if len(evGot) == 0 {
		t.Fatal("the stream caused no L2 evictions")
	}
}

// An address whose tag does not fit the packed key must never alias
// another line: every entry point rejects it with an error naming it.
func TestAddressBeyondTagRange(t *testing.T) {
	for _, sh := range platformShapes {
		h := New(sh.cfg)
		bad := h.lineLimit << h.lineShift
		// Truncating bad's tag would alias line 0; make that line resident.
		h.Access(0, false, Exclusive)
		for name, op := range map[string]func(){
			"Access":    func() { h.Access(bad, false, Exclusive) },
			"HitAccess": func() { h.HitAccess(bad, true) },
			"Probe":     func() { h.Probe(bad) },
			"SetState":  func() { h.SetState(bad, Invalid) },
		} {
			err := recoverError(op)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%#x", bad)) {
				t.Errorf("%s: %s(%#x) = %v, want an error naming the address", sh.name, name, bad, err)
			}
		}
		last := bad - uint64(sh.cfg.Line)
		if err := recoverError(func() { h.Access(last, true, Exclusive) }); err != nil {
			t.Errorf("%s: last in-range address %#x rejected: %v", sh.name, last, err)
		}
	}
}

func recoverError(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if err, ok = r.(error); !ok {
				err = fmt.Errorf("non-error panic: %v", r)
			}
		}
	}()
	f()
	return nil
}

// An L2 way is one uint16 (tag, LRU rank and state share it) and an L1 slot
// one uint32 (tag and state).
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(way{}); n != 2 {
		t.Errorf("way is %d bytes, want 2", n)
	}
	if n := unsafe.Sizeof(slot{}); n != 4 {
		t.Errorf("slot is %d bytes, want 4", n)
	}
}

// randomOp applies one random operation to h, drawing everything from rng,
// and describes its result.
func randomOp(h *Hierarchy, rng *rand.Rand) string {
	a := 4096 + uint64(rng.Intn(4*h.cfg.L2Size))
	write := rng.Intn(3) == 0
	switch op := rng.Intn(10); {
	case op < 6:
		lvl, st := h.Access(a, write, State(1+rng.Intn(3)))
		return fmt.Sprint("access ", lvl, st)
	case op < 8:
		lvl, st, ok := h.HitAccess(a, write)
		return fmt.Sprint("hit ", lvl, st, ok)
	case op < 9:
		h.SetState(a, State(rng.Intn(4)))
	default:
		h.InvalidateRange(a&^4095, 4096)
	}
	return ""
}

// Reset must leave exactly what New builds: every way zero (no way of any
// set touched yet), an empty fill filter, zero counters. A second stream then
// runs identically on the reset hierarchy and on a fresh one.
func TestResetMatchesNew(t *testing.T) {
	for _, sh := range platformShapes {
		h := New(sh.cfg)
		h.FilterPages(4096, 512)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 50000; i++ {
			randomOp(h, rng)
		}
		h.Reset()
		for i, s := range h.l1.slots {
			if s.key != 0 {
				t.Fatalf("%s: after Reset L1 slot %d holds %#x", sh.name, i, s.key)
			}
		}
		for i, w := range h.l2.ways {
			if w.key != 0 {
				t.Fatalf("%s: after Reset L2 way %d holds %#x", sh.name, i, w.key)
			}
		}
		for pg, f := range h.fill {
			if f != 0 {
				t.Fatalf("%s: after Reset fill word %d is %#x", sh.name, pg, f)
			}
		}
		if h.Accesses != 0 || h.L1Misses != 0 || h.L2Misses != 0 {
			t.Fatalf("%s: after Reset counters %d/%d/%d", sh.name, h.Accesses, h.L1Misses, h.L2Misses)
		}

		fresh := New(sh.cfg)
		fresh.FilterPages(4096, 512)
		r1, r2 := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
		for i := 0; i < 50000; i++ {
			if got, want := randomOp(h, r1), randomOp(fresh, r2); got != want {
				t.Fatalf("%s: op %d: reset hierarchy %q, fresh %q", sh.name, i, got, want)
			}
		}
		if !slices.Equal(h.l1.slots, fresh.l1.slots) || !slices.Equal(h.l2.ways, fresh.l2.ways) ||
			!slices.Equal(h.fill, fresh.fill) || h.Accesses != fresh.Accesses ||
			h.L1Misses != fresh.L1Misses || h.L2Misses != fresh.L2Misses {
			t.Fatalf("%s: reset and fresh hierarchies diverged", sh.name)
		}
	}
}

// LRU order in readable steps. Every letter is a line of L2 set 0 (and of
// L1 slot 0); "-X" invalidates X. Each step states the level the access is
// satisfied at and the letter it evicts from L2.
func TestLRUSequences(t *testing.T) {
	type step struct {
		op      string
		lvl     Level
		evicted string
	}
	for _, c := range []struct {
		shape string
		steps []step
	}{
		{"svm", []step{ // 2-way
			{"A", Miss, ""}, {"B", Miss, ""},
			{"A", L2Hit, ""}, {"A", L1Hit, ""}, // order A B
			{"C", Miss, "B"}, // C A
			{"A", L2Hit, ""}, // A C
			{"D", Miss, "C"}, // D A
			{"-D", 0, ""},    // D's way is invalid
			{"E", Miss, ""},  // fills D's way: E A
			{"B", Miss, "A"}, // B E
		}},
		{"dsm", []step{ // 4-way
			{"A", Miss, ""}, {"B", Miss, ""}, {"C", Miss, ""}, {"D", Miss, ""},
			{"B", L2Hit, ""}, // B D C A
			{"E", Miss, "A"}, // E B D C
			{"C", L2Hit, ""}, // C E B D
			{"F", Miss, "D"}, // F C E B
			{"A", Miss, "B"}, // A F C E
			{"E", L2Hit, ""}, // E A F C
			{"G", Miss, "C"}, // G E A F
			{"-A", 0, ""},    // A's way (rank 2) is invalid
			{"H", Miss, ""},  // fills A's way: H G E F
			{"B", Miss, "F"}, // B H G E
			{"G", L2Hit, ""}, // G B H E
			{"G", L1Hit, ""}, // unchanged
			{"C", Miss, "E"}, // C G B H
		}},
	} {
		var cfg Config
		for _, sh := range platformShapes {
			if sh.name == c.shape {
				cfg = sh.cfg
			}
		}
		h := New(cfg)
		span := uint64(cfg.L2Size / cfg.L2Assoc) // set 0 repeats at this stride
		addrOf := func(letter byte) uint64 { return uint64(letter-'A'+1) * span }
		var evicted string
		h.OnL2Evict = func(la uint64, _ State) {
			evicted = string(rune('A' - 1 + la<<h.lineShift/span))
		}
		for i, s := range c.steps {
			evicted = ""
			if s.op[0] == '-' {
				h.SetState(addrOf(s.op[1]), Invalid)
			} else if lvl, _ := h.Access(addrOf(s.op[0]), false, Exclusive); lvl != s.lvl {
				t.Fatalf("%s step %d (%s): level %v, want %v", c.shape, i, s.op, lvl, s.lvl)
			}
			if evicted != s.evicted {
				t.Fatalf("%s step %d (%s): evicted %q, want %q", c.shape, i, s.op, evicted, s.evicted)
			}
			if err := h.Check(); err != nil {
				t.Fatalf("%s step %d (%s): %v", c.shape, i, s.op, err)
			}
		}
	}
}
