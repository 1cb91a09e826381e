package svm

import (
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
)

func setup(np int) (*mem.AddressSpace, *Platform, *sim.Kernel) {
	as := mem.NewAddressSpace(4096, np)
	p := New(as, protocol.DefaultHLRCParams(), np)
	k := sim.New(p, sim.Config{NumProcs: np, BarrierManager: sim.AutoBarrierManager})
	return as, p, k
}

func TestLocalAccessIsCheap(t *testing.T) {
	as, _, k := setup(2)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	run := k.Run("local", func(p *sim.Proc) {
		if p.ID() == 0 {
			p.Read(a)
			p.Read(a) // cache hit
		}
		p.Barrier()
	})
	c := run.Procs[0].Counters
	if c.PageFaults != 0 {
		t.Errorf("home-node access took %d page faults", c.PageFaults)
	}
	if run.Procs[0].Cycles[stats.DataWait] != 0 {
		t.Error("home-node access charged data wait")
	}
}

func TestRemotePageFaultCostAndCount(t *testing.T) {
	as, _, k := setup(2)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	run := k.Run("remote", func(p *sim.Proc) {
		if p.ID() == 1 {
			p.Read(a)
			p.Read(a + 64) // second access: page now valid
		}
		p.Barrier()
	})
	c := run.Procs[1].Counters
	if c.PageFaults != 1 || c.PageFetches != 1 {
		t.Errorf("faults=%d fetches=%d, want 1/1", c.PageFaults, c.PageFetches)
	}
	dw := run.Procs[1].Cycles[stats.DataWait]
	// Unloaded fetch: fault overhead + messaging + page transfer on both
	// I/O buses — roughly 100-150 µs at 200 MHz, i.e. 20k-30k cycles.
	if dw < 18000 || dw > 32000 {
		t.Errorf("page fetch data wait = %d cycles, want ~20k-30k", dw)
	}
	// The home served the page: it gets handler time.
	if run.Procs[0].Counters.PagesServed != 1 {
		t.Error("home did not record serving the page")
	}
	if run.Procs[0].Cycles[stats.Handler] == 0 {
		t.Error("home charged no handler time for serving")
	}
}

func TestFirstWriteMakesTwin(t *testing.T) {
	as, _, k := setup(2)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	run := k.Run("twin", func(p *sim.Proc) {
		if p.ID() == 1 {
			p.Read(a)      // fetch page
			p.Write(a)     // first write: trap + twin
			p.Write(a + 8) // already dirty: no more protocol work
		}
		p.Barrier()
	})
	if got := run.Procs[1].Counters.TwinsMade; got != 1 {
		t.Errorf("twins = %d, want 1", got)
	}
}

func TestHomeWriterMakesNoTwin(t *testing.T) {
	as, _, k := setup(2)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	run := k.Run("hometwin", func(p *sim.Proc) {
		if p.ID() == 0 {
			p.Write(a)
		}
		p.Barrier()
	})
	if got := run.Procs[0].Counters.TwinsMade; got != 0 {
		t.Errorf("home writer made %d twins, want 0", got)
	}
}

func TestBarrierPropagatesWritesAndInvalidates(t *testing.T) {
	as, _, k := setup(2)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	run := k.Run("coherence", func(p *sim.Proc) {
		if p.ID() == 1 {
			p.Read(a) // fetch
		}
		p.Barrier()
		if p.ID() == 0 {
			p.Write(a) // home writes (no diff needed, but notice logged)
		}
		p.Barrier()
		if p.ID() == 1 {
			p.Read(a) // must re-fetch: copy invalidated by notice
		}
		p.Barrier()
	})
	c := run.Procs[1].Counters
	if c.PageFetches != 2 {
		t.Errorf("proc 1 fetched %d times, want 2 (copy invalidated at barrier)", c.PageFetches)
	}
	if c.Invalidations == 0 {
		t.Error("no invalidations recorded at barrier")
	}
}

func TestDiffFlushedToHomeAtRelease(t *testing.T) {
	as, _, k := setup(2)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	run := k.Run("diff", func(p *sim.Proc) {
		if p.ID() == 1 {
			p.Lock(1)
			p.Write(a)  // fetch + twin + dirty
			p.Unlock(1) // diff created, sent to home
		}
		p.Barrier()
	})
	if got := run.Procs[1].Counters.DiffsCreated; got != 1 {
		t.Errorf("diffs created = %d, want 1", got)
	}
	if got := run.Procs[0].Counters.DiffsApplied; got != 1 {
		t.Errorf("diffs applied at home = %d, want 1", got)
	}
}

func TestLazyInvalidationOnlyThroughLock(t *testing.T) {
	// LRC: a third processor that does NOT synchronize keeps reading its
	// (stale) copy without faulting.
	as, _, k := setup(3)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	run := k.Run("lazy", func(p *sim.Proc) {
		switch p.ID() {
		case 1:
			p.Read(a) // get a copy
			p.Lock(1)
			p.Unlock(1)
			p.Read(a) // writer's notices only visible via lock 1
		case 2:
			p.Read(a) // get a copy
			p.Lock(1)
			p.Write(a)
			p.Unlock(1)
			p.Read(a) // own dirty copy: no fault
		}
		p.Barrier()
	})
	// Proc 2 fetched once; proc 1 fetched once, then re-fetched only if
	// its acquire happened after proc 2's release (ordering-dependent:
	// either 1 or 2 fetches, never more).
	if got := run.Procs[2].Counters.PageFetches; got != 1 {
		t.Errorf("writer fetched %d, want exactly 1", got)
	}
	if got := run.Procs[1].Counters.PageFetches; got > 2 {
		t.Errorf("reader fetched %d, want <= 2", got)
	}
}

func TestLockTransfersWriteNotices(t *testing.T) {
	// Sequenced by lock handoff: proc 0 writes under lock, proc 1 then
	// acquires the same lock and must see its copy invalidated.
	as, _, k := setup(2)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	run := k.Run("notices", func(p *sim.Proc) {
		if p.ID() == 1 {
			p.Read(a) // copy at proc 1
		}
		p.Barrier()
		if p.ID() == 0 {
			p.Lock(5)
			p.Write(a)
			p.Unlock(5)
		}
		p.Barrier() // ensures 0's release precedes 1's acquire
		if p.ID() == 1 {
			p.Lock(5)
			p.Read(a) // must fault: invalidated by write notice
			p.Unlock(5)
		}
		p.Barrier()
	})
	if got := run.Procs[1].Counters.PageFetches; got != 2 {
		t.Errorf("reader fetched %d pages, want 2", got)
	}
}

func TestPrevalidateAvoidsFetch(t *testing.T) {
	as, plat, k := setup(2)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	run := k.Run("warm", func(p *sim.Proc) {
		if p.ID() == 1 {
			sim.WarmPages(p.Kernel(), a, 4096, 1)
			p.Read(a)
		}
		p.Barrier()
	})
	_ = plat
	if got := run.Procs[1].Counters.PageFetches; got != 0 {
		t.Errorf("prevalidated page fetched %d times, want 0", got)
	}
}

func TestContentionAtHomeSerializesFetches(t *testing.T) {
	// Many processors fault on pages of the same home at once; the
	// average fetch cost must exceed the unloaded cost.
	np := 8
	as, _, k := setup(np)
	n := 4096 * np
	a := as.AllocPages(n)
	as.SetHome(a, n, 0)
	run := k.Run("contention", func(p *sim.Proc) {
		if p.ID() != 0 {
			p.Read(a + uint64(p.ID())*4096)
		}
		p.Barrier()
	})
	var loaded uint64
	for i := 1; i < np; i++ {
		loaded += run.Procs[i].Cycles[stats.DataWait]
	}
	loaded /= uint64(np - 1)

	// Unloaded: one lone fetch.
	as2, _, k2 := setup(np)
	a2 := as2.AllocPages(4096)
	as2.SetHome(a2, 4096, 0)
	run2 := k2.Run("unloaded", func(p *sim.Proc) {
		if p.ID() == 1 {
			p.Read(a2)
		}
		p.Barrier()
	})
	unloaded := run2.Procs[1].Cycles[stats.DataWait]
	if loaded <= unloaded {
		t.Errorf("no contention effect: loaded avg %d <= unloaded %d", loaded, unloaded)
	}
}

func TestFreeCSFaultsDiagnostic(t *testing.T) {
	// The paper's diagnostic: page faults inside critical sections cost
	// nothing, so the dilation disappears.
	mk := func(free bool) uint64 {
		as := mem.NewAddressSpace(4096, 2)
		a := as.AllocPages(4096)
		as.SetHome(a, 4096, 0)
		plat := New(as, protocol.DefaultHLRCParams(), 2)
		k := sim.New(plat, sim.Config{NumProcs: 2, FreeCSFaults: free})
		run := k.Run("x", func(p *sim.Proc) {
			if p.ID() == 1 {
				p.Lock(1)
				p.Read(a)
				p.Unlock(1)
			}
			p.Barrier()
		})
		return run.Procs[1].Cycles[stats.DataWait]
	}
	if withFault, free := mk(false), mk(true); free != 0 || withFault == 0 {
		t.Errorf("FreeCSFaults: normal=%d free=%d, want >0 and 0", withFault, free)
	}
}

func TestBarrierManagerChargedHandlerTime(t *testing.T) {
	np := 16
	as, _, _ := setup(np)
	plat := New(as, protocol.DefaultHLRCParams(), np)
	k := sim.New(plat, sim.Config{NumProcs: np, BarrierManager: sim.AutoBarrierManager})
	run := k.Run("mgr", func(p *sim.Proc) {
		p.Barrier()
		p.Compute(10)
		p.Barrier()
	})
	mgr := k.Config().BarrierManager
	if mgr != 10 {
		t.Fatalf("manager = %d, want 10", mgr)
	}
	if run.Procs[mgr].Cycles[stats.Handler] == 0 {
		t.Error("barrier manager charged no handler time")
	}
	for i := 0; i < np; i++ {
		if i != mgr && run.Procs[i].Cycles[stats.Handler] > run.Procs[mgr].Cycles[stats.Handler] {
			t.Errorf("proc %d has more handler time than the manager", i)
		}
	}
}

// TestAccessPastAddressSpacePanics: page tables are sized once to the
// address space, so an access past it fails the run as a contained
// *sim.ProcPanicError, on the page's home node and elsewhere, by scalar
// access and by range, instead of being served silently.
func TestAccessPastAddressSpacePanics(t *testing.T) {
	for _, c := range []struct {
		name string
		body func(p *sim.Proc, past uint64)
	}{
		{"read on proc 0", func(p *sim.Proc, past uint64) {
			if p.ID() == 0 {
				p.Read(past)
			}
		}},
		{"read on proc 1", func(p *sim.Proc, past uint64) {
			if p.ID() == 1 {
				p.Read(past)
			}
		}},
		{"write range", func(p *sim.Proc, past uint64) { p.WriteRange(past, 4096) }},
	} {
		as, _, k := setup(2)
		a := as.AllocPages(4096)
		past := a + 64*4096
		_, err := k.RunErr(c.name, func(p *sim.Proc) {
			c.body(p, past)
			p.Barrier()
		})
		var pe *sim.ProcPanicError
		if !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want *sim.ProcPanicError", c.name, err)
		}
	}
}
