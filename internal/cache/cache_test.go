package cache

import (
	"strings"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{L1Size: 1 << 10, L2Size: 8 << 10, L2Assoc: 2, Line: 32}
}

func TestColdMissThenHit(t *testing.T) {
	h := New(testConfig())
	lvl, _ := h.Access(0x1000, false, Exclusive)
	if lvl != Miss {
		t.Errorf("first access = %v, want Miss", lvl)
	}
	lvl, _ = h.Access(0x1000, false, Exclusive)
	if lvl != L1Hit {
		t.Errorf("second access = %v, want L1Hit", lvl)
	}
	// Same line, different word.
	lvl, _ = h.Access(0x1010, false, Exclusive)
	if lvl != L1Hit {
		t.Errorf("same-line access = %v, want L1Hit", lvl)
	}
}

func TestL1ConflictL2Hit(t *testing.T) {
	h := New(testConfig())
	// L1 is 1 KB direct-mapped with 32 B lines = 32 sets; addresses 1 KB
	// apart conflict in L1 but 8 KB L2 (2-way, 128 sets) holds both.
	h.Access(0x0000, false, Exclusive)
	h.Access(0x0400, false, Exclusive) // evicts 0x0000 from L1
	lvl, _ := h.Access(0x0000, false, Exclusive)
	if lvl != L2Hit {
		t.Errorf("conflicting access = %v, want L2Hit", lvl)
	}
}

func TestWriteSetsModified(t *testing.T) {
	h := New(testConfig())
	h.Access(0x2000, true, Exclusive)
	_, st := h.Probe(0x2000)
	if st != Modified {
		t.Errorf("state after write = %v, want M", st)
	}
}

func TestEToMOnWriteHit(t *testing.T) {
	h := New(testConfig())
	h.Access(0x2000, false, Exclusive)
	_, st := h.Access(0x2000, true, Exclusive)
	if st != Modified {
		t.Errorf("state after write hit on E = %v, want M", st)
	}
}

func TestSetStateInvalidRemovesLine(t *testing.T) {
	h := New(testConfig())
	h.Access(0x3000, false, Shared)
	h.SetState(0x3000, Invalid)
	if h.Contains(0x3000) {
		t.Error("line still present after invalidation")
	}
	lvl, _ := h.Access(0x3000, false, Shared)
	if lvl != Miss {
		t.Errorf("access after invalidation = %v, want Miss", lvl)
	}
}

func TestInvalidateRange(t *testing.T) {
	h := New(testConfig())
	for a := uint64(0x4000); a < 0x4000+4096; a += 32 {
		h.Access(a, false, Exclusive)
	}
	h.InvalidateRange(0x4000, 4096)
	for a := uint64(0x4000); a < 0x4000+4096; a += 32 {
		if h.Contains(a) {
			t.Fatalf("line %#x survived page invalidation", a)
		}
	}
}

func TestEvictionCallbackAndInclusion(t *testing.T) {
	h := New(testConfig())
	var evicted []uint64
	h.OnL2Evict = func(la uint64, st State) { evicted = append(evicted, la) }
	// Fill one L2 set (2 ways) with conflicting lines, then add a third.
	// L2: 8 KB / 32 B / 2-way = 128 sets, so addresses 128*32 = 4 KB
	// apart map to the same set.
	h.Access(0x0000, false, Exclusive)
	h.Access(0x1000, false, Exclusive)
	h.Access(0x2000, false, Exclusive)
	if len(evicted) != 1 {
		t.Fatalf("evictions = %d, want 1", len(evicted))
	}
	if evicted[0] != 0 {
		t.Errorf("evicted line %#x, want line 0 (LRU)", evicted[0])
	}
	// Inclusion: the evicted line must be gone from L1 too.
	if h.Contains(0x0000) {
		t.Error("evicted L2 line still visible (L1 inclusion violated)")
	}
}

func TestDirectMappedConflictThrashing(t *testing.T) {
	// The superlinear-speedup story in the paper depends on 2-d layouts
	// thrashing direct-mapped caches: alternating accesses at a stride of
	// the whole cache size always miss.
	cfg := Config{L1Size: 1 << 10, L2Size: 2 << 10, L2Assoc: 1, Line: 32}
	h := New(cfg)
	h.Access(0x0000, false, Exclusive)
	h.Access(0x0800, false, Exclusive) // conflicts in both levels
	for i := 0; i < 10; i++ {
		lvl, _ := h.Access(uint64(0x0000+(i%2)*0x0800), false, Exclusive)
		if i >= 2 && lvl != Miss {
			t.Fatalf("iteration %d: level %v, want Miss (thrash)", i, lvl)
		}
	}
}

func TestProbeDoesNotMutate(t *testing.T) {
	h := New(testConfig())
	h.Access(0x6000, false, Shared)
	before := h.Accesses
	h.Probe(0x6000)
	h.Probe(0x9999999)
	if h.Accesses != before {
		t.Error("Probe counted as access")
	}
}

func TestAccessLevelNeverWorsensImmediately(t *testing.T) {
	// Property: accessing an address twice in a row, the second access
	// hits L1.
	h := New(testConfig())
	f := func(a uint32) bool {
		addr := uint64(a) + 1 // avoid line-address 0 sentinel
		h.Access(addr, false, Exclusive)
		lvl, _ := h.Access(addr, false, Exclusive)
		return lvl == L1Hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMissCounters(t *testing.T) {
	h := New(testConfig())
	h.Access(0x1000, false, Exclusive)
	h.Access(0x1000, false, Exclusive)
	if h.Accesses != 2 || h.L2Misses != 1 || h.L1Misses != 1 {
		t.Errorf("counters = %d/%d/%d, want 2/1/1", h.Accesses, h.L1Misses, h.L2Misses)
	}
}

// The fill filter's bookkeeping: an L2 fill sets its group's bit, a walk
// over a whole group clears it, a walk over part of a group leaves it set
// (other lines of the group may still be resident), and Reset empties it.
func TestFillFilterBits(t *testing.T) {
	for _, c := range []struct {
		line, groupLines int
	}{{32, 8}, {128, 2}, {512, 1}} {
		cfg := Config{L1Size: 8 << 10, L2Size: 64 << 10, L2Assoc: 2, Line: c.line}
		h := New(cfg)
		h.FilterPages(4096, 4)
		g := uint64(c.groupLines * c.line) // bytes per group
		h.Access(0x1000+3*g, false, Exclusive)
		if got, want := h.fill[1], uint16(1<<3); got != want {
			t.Fatalf("line %d: fill word after one fill = %#x, want %#x", c.line, got, want)
		}
		if c.groupLines > 1 {
			h.InvalidateRange(0x1000+3*g+uint64(c.line), c.line) // part of group 3
			if h.fill[1] != 1<<3 {
				t.Fatalf("line %d: a partial walk cleared the group's bit", c.line)
			}
			if !h.Contains(0x1000 + 3*g) {
				t.Fatalf("line %d: a partial walk dropped a line outside its range", c.line)
			}
		}
		h.InvalidateRange(0x1000, 4096)
		if h.fill[1] != 0 || h.Contains(0x1000+3*g) {
			t.Fatalf("line %d: whole-page walk left fill word %#x", c.line, h.fill[1])
		}
		h.Access(0x2000, false, Exclusive)
		h.Reset()
		if h.fill[2] != 0 {
			t.Fatalf("line %d: Reset left fill word %#x", c.line, h.fill[2])
		}
	}
}

// New models only power-of-two line sizes, L2 associativities and set
// counts, and rejects anything else with an error naming the Config field.
func TestNewRejectsUnsupportedShapes(t *testing.T) {
	for _, c := range []struct {
		field string
		edit  func(*Config)
	}{
		{"L2Assoc", func(c *Config) { c.L2Assoc = 3 }},
		{"L2Assoc", func(c *Config) { c.L2Assoc = 0 }},
		{"Line", func(c *Config) { c.Line = 48 }},
		{"L2Size", func(c *Config) { c.L2Size = 24 << 10 }},
	} {
		cfg := testConfig()
		c.edit(&cfg)
		var err error
		func() {
			defer func() { err, _ = recover().(error) }()
			New(cfg)
		}()
		if err == nil || !strings.Contains(err.Error(), "Config."+c.field+" ") {
			t.Errorf("New(%+v) panicked with %v, want an error naming Config.%s", cfg, err, c.field)
		}
	}
}

// Check names each kind of fault: a line in L1 but not in L2, two ways of a
// set at one rank, and a resident line whose fill-filter group bit is clear.
func TestCheckNamesEachFault(t *testing.T) {
	dash := Config{L1Size: 16 << 10, L2Size: 1 << 20, L2Assoc: 4, Line: 64}
	// Four lines of one L2 set (and one L1 slot), 256 KB apart.
	line := func(i int) uint64 { return 0x1000 + uint64(i)*(256<<10) }
	for _, c := range []struct {
		name, want string
		fault      func(h *Hierarchy)
	}{
		{"L2 copy dropped under a valid L1 way", "inclusion", func(h *Hierarchy) {
			b, w, _ := h.l2.lookup(h.LineOf(line(2)))
			h.l2.ways[b+w].key &^= stateMask
		}},
		{"duplicated rank", "rank", func(h *Hierarchy) {
			b, w, _ := h.l2.lookup(h.LineOf(line(0))) // rank 3
			h.l2.ways[b+w].key -= 1 << stateBits      // now shares rank 2
		}},
		{"fill-filter bit cleared", "fill-filter", func(h *Hierarchy) {
			h.fill[line(0)/4096] = 0
		}},
	} {
		h := New(dash)
		h.FilterPages(4096, 1024)
		// Most recent first, the set ends as 2 3 1 0, and L1 holds line 2.
		for _, i := range []int{0, 1, 2, 3, 1, 3, 2} {
			h.Access(line(i), false, Exclusive)
		}
		if err := h.Check(); err != nil {
			t.Fatalf("%s: healthy hierarchy: %v", c.name, err)
		}
		c.fault(h)
		if err := h.Check(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Check() = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
