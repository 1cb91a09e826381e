package cache

import "testing"

// The hierarchy's tag arrays are allocated once in New; every steady-state
// operation — probe, fused hit-access, plain access including misses with
// eviction — must run allocation-free, because these are the innermost
// operations of every simulated memory reference. A regression here (say, a
// return to per-set slices or a closure sneaking into the walk) multiplies
// across hundreds of millions of references per figure run.

func allocTestConfig() Config {
	return Config{L1Size: 8 << 10, L2Size: 64 << 10, L2Assoc: 2, Line: 32}
}

func TestAllocFreeProbe(t *testing.T) {
	h := New(allocTestConfig())
	h.Access(64, false, Exclusive)
	if n := testing.AllocsPerRun(1000, func() {
		h.Probe(64)
		h.Probe(1 << 20) // miss probe
	}); n != 0 {
		t.Fatalf("Probe allocates %v per run; want 0", n)
	}
}

func TestAllocFreeHitAccess(t *testing.T) {
	h := New(allocTestConfig())
	h.Access(64, true, Modified)
	if n := testing.AllocsPerRun(1000, func() {
		h.HitAccess(64, false)
		h.HitAccess(64, true)
		h.HitAccess(1<<20, false) // refused: miss
	}); n != 0 {
		t.Fatalf("HitAccess allocates %v per run; want 0", n)
	}
}

func TestAllocFreeAccess(t *testing.T) {
	h := New(allocTestConfig())
	var addr uint64
	if n := testing.AllocsPerRun(1000, func() {
		// A moving stream over a window four times the L2 forces misses,
		// fills, and L1/L2 evictions.
		h.Access(addr, false, Exclusive)
		h.Access(addr, true, Modified)
		if addr += 32; addr == 4*64<<10 {
			addr = 0
		}
	}); n != 0 {
		t.Fatalf("Access allocates %v per run; want 0", n)
	}
}

func TestAllocFreeSetState(t *testing.T) {
	h := New(allocTestConfig())
	h.Access(64, false, Shared)
	if n := testing.AllocsPerRun(1000, func() {
		h.SetState(64, Invalid)
		h.SetState(64, Shared) // no-op on a now-invalid line
	}); n != 0 {
		t.Fatalf("SetState allocates %v per run; want 0", n)
	}
}

func TestAllocFreeInvalidateRange(t *testing.T) {
	h := New(allocTestConfig())
	h.FilterPages(4096, 64)
	if n := testing.AllocsPerRun(1000, func() {
		h.Access(0x3000, true, Exclusive)
		h.Access(0x3400, false, Exclusive)
		h.InvalidateRange(0x3000, 4096)  // two resident groups walked
		h.InvalidateRange(0x5000, 4096)  // nothing resident: every group skipped
		h.InvalidateRange(0x7f0010, 100) // past the filter: every line walked
	}); n != 0 {
		t.Fatalf("InvalidateRange allocates %v per run; want 0", n)
	}
}
