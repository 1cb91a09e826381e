package platform

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
)

// setup builds the named hardware preset through Make on a fresh address
// space for np processors.
func setup(t *testing.T, name string, np int) (*mem.AddressSpace, *protocol.HW, *sim.Kernel) {
	t.Helper()
	as := mem.NewAddressSpace(PageSize, np)
	pl, err := Make(name, as, np)
	if err != nil {
		t.Fatal(err)
	}
	hw, ok := pl.(*protocol.HW)
	if !ok {
		t.Fatalf("%s preset built %T, want *protocol.HW", name, pl)
	}
	return as, hw, sim.New(hw, sim.Config{NumProcs: np, Check: true})
}

// Regression: a write UPGRADE (write to a line the writer already holds
// Shared) must leave the writer's own cache in Modified. The bug: the
// protocol recorded the writer as exclusive owner in the line table or
// directory but cache.Access keeps a hit's existing state, so the line
// stayed Shared — inconsistent with the protocol state, and every later
// write by the owner paid a fresh upgrade transaction for a line it
// already owned.
func TestWriteUpgradeLeavesOwnerModified(t *testing.T) {
	for _, name := range AllPresets {
		if !IsHardwareCoherent(name) {
			continue
		}
		t.Run(name, func(t *testing.T) {
			as, pl, k := setup(t, name, 2)
			a := as.AllocPages(4096)
			as.SetHome(a, 4096, 0)
			_, err := k.RunErr("upgrade", func(p *sim.Proc) {
				if p.ID() == 0 {
					p.Read(a)
				}
				p.Barrier()
				if p.ID() == 1 {
					p.Read(a) // both caches now hold the line Shared
				}
				p.Barrier()
				if p.ID() == 1 {
					p.Write(a) // upgrade: invalidate proc 0, take ownership
				}
				p.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, st := pl.Eng.Caches[1].Probe(a); st != cache.Modified {
				t.Errorf("writer's cache holds upgraded line in state %s, want M", st)
			}
			if lvl, _ := pl.Eng.Caches[0].Probe(a); lvl != cache.Miss {
				t.Error("old sharer still holds the line after the upgrade invalidation")
			}
		})
	}
}

// lockCostPerAcquire runs two processors through ten decoupled lock
// handoffs each and returns the average lock wait per acquisition.
func lockCostPerAcquire(t *testing.T, name string) uint64 {
	_, _, k := setup(t, name, 2)
	run := k.Run("locks", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Lock(1)
			p.Compute(10)
			p.Unlock(1)
			p.Compute(100) // decouple the processors
		}
		p.Barrier()
	})
	return run.TotalCycles(stats.LockWait) / 20
}

// The paper's key asymmetry: an SVM lock costs thousands of cycles; a
// hardware lock costs tens to hundreds.
func TestLocksAreCheapOnSMP(t *testing.T) {
	if perLock := lockCostPerAcquire(t, "smp"); perLock > 1000 {
		t.Errorf("SMP lock cost %d cycles each, want cheap (<1000)", perLock)
	}
}

func TestLocksAreCheapOnDSM(t *testing.T) {
	if perLock := lockCostPerAcquire(t, "dsm"); perLock > 2000 {
		t.Errorf("DSM lock cost %d cycles each, want cheap (<2000)", perLock)
	}
}

func TestMissThenHit(t *testing.T) {
	as, _, k := setup(t, "smp", 1)
	a := as.AllocPages(4096)
	run := k.Run("hit", func(p *sim.Proc) {
		p.Read(a)
		p.Read(a)
	})
	c := run.Procs[0].Counters
	if c.BusTransactions != 1 {
		t.Errorf("bus transactions = %d, want 1", c.BusTransactions)
	}
}

func TestCacheToCacheTransfer(t *testing.T) {
	as, _, k := setup(t, "smp", 2)
	a := as.AllocPages(4096)
	run := k.Run("c2c", func(p *sim.Proc) {
		if p.ID() == 0 {
			p.Write(a)
		}
		p.Barrier()
		if p.ID() == 1 {
			p.Read(a) // supplied cache-to-cache by owner 0
		}
		p.Barrier()
	})
	if run.Procs[1].Cycles[stats.DataWait] == 0 {
		t.Error("cache-to-cache transfer charged no data wait")
	}
	if got := run.Procs[1].Counters.RemoteMisses; got != 1 {
		t.Errorf("c2c misses = %d, want 1", got)
	}
}

func TestUpgradeInvalidatesSharers(t *testing.T) {
	as, _, k := setup(t, "smp", 4)
	a := as.AllocPages(4096)
	run := k.Run("upg", func(p *sim.Proc) {
		p.Read(a)
		p.Barrier()
		if p.ID() == 2 {
			p.Write(a)
		}
		p.Barrier()
		p.Read(a)
		p.Barrier()
	})
	for i := 0; i < 4; i++ {
		if i == 2 {
			continue
		}
		if got := run.Procs[i].Counters.BusTransactions; got < 2 {
			t.Errorf("proc %d bus txns = %d, want >= 2 (re-read after invalidation)", i, got)
		}
	}
}

func TestBusContentionSerializes(t *testing.T) {
	// All processors streaming misses saturate the bus: per-processor
	// average transaction time rises well above the unloaded cost.
	np := 8
	as, _, k := setup(t, "smp", np)
	per := 256 << 10
	a := as.AllocPages(per * np)
	run := k.Run("stream", func(p *sim.Proc) {
		base := a + uint64(p.ID()*per)
		for off := 0; off < per; off += 128 {
			p.Read(base + uint64(off))
		}
		p.Barrier()
	})
	c := run.AggregateCounters()
	totalStall := run.TotalCycles(stats.CacheStall) + run.TotalCycles(stats.DataWait)
	perTxn := totalStall / c.BusTransactions
	bp := protocol.DefaultBusParams()
	if unloaded := bp.BusArb + bp.BusXfer + bp.MemLat; perTxn <= unloaded {
		t.Errorf("no bus contention: %d cycles/txn <= unloaded %d", perTxn, unloaded)
	}
}

func TestLocalVsRemoteMissClassification(t *testing.T) {
	as, _, k := setup(t, "dsm", 2)
	a := as.AllocPages(8192)
	as.SetHome(a, 4096, 0)
	as.SetHome(a+4096, 4096, 1)
	run := k.Run("miss", func(p *sim.Proc) {
		if p.ID() == 0 {
			p.Read(a)        // local home
			p.Read(a + 4096) // remote home
		}
		p.Barrier()
	})
	c := run.Procs[0].Counters
	if c.LocalMisses != 1 || c.RemoteMisses != 1 {
		t.Errorf("local=%d remote=%d, want 1/1", c.LocalMisses, c.RemoteMisses)
	}
	if run.Procs[0].Cycles[stats.DataWait] == 0 {
		t.Error("remote miss charged no data wait")
	}
	if run.Procs[0].Cycles[stats.CacheStall] == 0 {
		t.Error("local miss charged no cache stall")
	}
}

func TestThreeHopDirtyMiss(t *testing.T) {
	as, _, k := setup(t, "dsm", 3)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	run := k.Run("3hop", func(p *sim.Proc) {
		if p.ID() == 1 {
			p.Write(a) // line dirty at 1
		}
		p.Barrier()
		if p.ID() == 2 {
			p.Read(a) // home 0, owner 1: 3-hop
		}
		p.Barrier()
	})
	if got := run.Procs[2].Counters.ThreeHopMisses; got != 1 {
		t.Errorf("three-hop misses = %d, want 1", got)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	as, _, k := setup(t, "dsm", 4)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	run := k.Run("inval", func(p *sim.Proc) {
		p.Read(a) // everyone shares the line
		p.Barrier()
		if p.ID() == 0 {
			p.Write(a) // upgrade, invalidating 3 sharers
		}
		p.Barrier()
		p.Read(a) // all but 0 miss again (3-hop from new owner)
		p.Barrier()
	})
	for i := 1; i < 4; i++ {
		// Each non-writer missed twice on the line: cold + after inval.
		misses := run.Procs[i].Counters.LocalMisses + run.Procs[i].Counters.RemoteMisses
		if misses < 2 {
			t.Errorf("proc %d misses = %d, want >= 2 (invalidation)", i, misses)
		}
	}
}

func TestSilentEtoMUpgradeIsLocal(t *testing.T) {
	as, _, k := setup(t, "dsm", 2)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	run := k.Run("e2m", func(p *sim.Proc) {
		if p.ID() == 0 {
			p.Read(a)  // fills Exclusive (sole sharer, local home)
			p.Write(a) // silent E->M: no new miss
		}
		p.Barrier()
	})
	c := run.Procs[0].Counters
	if got := c.LocalMisses + c.RemoteMisses; got != 1 {
		t.Errorf("misses = %d, want 1 (E->M must be silent)", got)
	}
}

func TestDirectoryEvictionConsistency(t *testing.T) {
	// Evicting a Modified line removes ownership; a later reader must
	// not be charged a 3-hop miss.
	as, _, k := setup(t, "dsm", 2)
	big := 4 << 20 // larger than L2 to force evictions
	a := as.AllocPages(big)
	as.SetHome(a, big, 0)
	run := k.Run("evict", func(p *sim.Proc) {
		if p.ID() == 0 {
			for off := 0; off < big; off += 64 {
				p.Write(a + uint64(off))
			}
		}
		p.Barrier()
		if p.ID() == 1 {
			p.Read(a) // long evicted from proc 0's 1 MB L2
		}
		p.Barrier()
	})
	if got := run.Procs[1].Counters.ThreeHopMisses; got != 0 {
		t.Errorf("read of evicted line counted %d 3-hop misses, want 0", got)
	}
}
