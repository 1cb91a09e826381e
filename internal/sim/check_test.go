package sim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/stats"
)

// Property: however a Resource is driven — dense bursts, sparse arrivals,
// zero-length reservations, clock jumps — reservations never overlap, so
// total occupancy can never exceed the busy-until clock.
func TestResourceOccupancyNeverExceedsWallTime(t *testing.T) {
	// Deterministic LCG (no global RNG: runs must be reproducible).
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 16
	}
	var r Resource
	var now uint64
	for i := 0; i < 10000; i++ {
		switch next() % 4 {
		case 0:
			now += next() % 5000 // jump past the busy window
		case 1: // dense burst at the same instant
		default:
			now += next() % 50
		}
		dur := next() % 200
		start := r.Acquire(now, dur)
		if start < now {
			t.Fatalf("iteration %d: start %d before request time %d", i, start, now)
		}
		if r.occ > r.busyUntil {
			t.Fatalf("iteration %d: occupancy %d exceeds busy-until %d", i, r.occ, r.busyUntil)
		}
		if err := r.CheckOccupancy("resource"); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	if r.occ == 0 {
		t.Fatal("property test charged no occupancy at all")
	}
}

func TestCheckOccupancyDetectsOvercharge(t *testing.T) {
	var r Resource
	r.Acquire(0, 100)
	r.occ += 1 // simulate a double-charge bug
	if err := r.CheckOccupancy("bus"); err == nil {
		t.Fatal("overcharged resource passed CheckOccupancy")
	}
}

// corruptPlatform is a NopPlatform whose invariants report a violation; the
// kernel's checker must surface it as a structured InvariantError.
type corruptPlatform struct{ NopPlatform }

func (c *corruptPlatform) CheckInvariants() error {
	return fmt.Errorf("synthetic corruption")
}

func TestCheckerReportsCorruptPlatform(t *testing.T) {
	k := New(&corruptPlatform{}, Config{NumProcs: 2, Check: true})
	_, err := k.RunErr("corrupt", func(p *Proc) {
		p.Compute(10)
		p.Barrier()
	})
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want InvariantError", err)
	}
	if ie.Where != "platform" {
		t.Errorf("violation site = %q, want platform", ie.Where)
	}
}

// debtPlatform charges handler debt to processor 0 on every slow access, the
// way a home node is charged for serving pages. The accounting identity —
// every processor's breakdown sums exactly to its final clock — only holds
// if each charged cycle lands in both the clock and the Handler category.
type debtPlatform struct{ NopPlatform }

func (d *debtPlatform) FastAccess(p int, now uint64, addr uint64, write bool) (uint64, bool) {
	return 0, false // force every access through SlowAccess
}

func (d *debtPlatform) SlowAccess(p int, now uint64, addr uint64, write bool) AccessCost {
	if p != 0 {
		d.k.ChargeHandler(0, 37)
	}
	return AccessCost{CacheStall: 5, Handler: 3}
}

func (d *debtPlatform) Attach(k *Kernel) { d.k = k }

func TestHandlerDebtConservesCycles(t *testing.T) {
	np := 4
	pl := &debtPlatform{}
	k := New(pl, Config{NumProcs: np, Check: true})
	run, err := k.RunErr("debt", func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Read(uint64(4096 + i*64))
			p.Compute(11)
		}
		p.Barrier()
	})
	// The Check sweep enforces the identity at end of run; err != nil would
	// mean charged debt leaked out of (or was double-counted into) a clock.
	if err != nil {
		t.Fatal(err)
	}
	if got := run.Procs[0].Cycles[stats.Handler]; got < 37*uint64(np-1)*50 {
		t.Errorf("debtor's handler time = %d, want at least the %d charged cycles",
			got, 37*uint64(np-1)*50)
	}
}
