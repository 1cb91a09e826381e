package svmsmp

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

func setup(np int) (*mem.AddressSpace, *sim.Kernel) {
	as := mem.NewAddressSpace(4096, np)
	p := New(as, np)
	return as, sim.New(p, sim.Config{NumProcs: np})
}

func TestIntraClusterSharingIsCheap(t *testing.T) {
	// Two processors in the SAME cluster share a page: no page fetches,
	// only bus-level coherence.
	as, k := setup(8)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	run := k.Run("intra", func(p *sim.Proc) {
		if p.ID() == 0 {
			p.Write(a)
		}
		p.Barrier()
		if p.ID() == 1 { // cluster mate of 0
			p.Read(a)
		}
		p.Barrier()
	})
	c := run.AggregateCounters()
	if c.PageFetches != 0 {
		t.Errorf("intra-cluster sharing fetched %d pages, want 0", c.PageFetches)
	}
	if run.Procs[1].Cycles[stats.DataWait] > 1000 {
		t.Errorf("intra-cluster read cost %d cycles, want bus-level", run.Procs[1].Cycles[stats.DataWait])
	}
}

func TestInterClusterSharingPaysSVM(t *testing.T) {
	as, k := setup(8)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	run := k.Run("inter", func(p *sim.Proc) {
		if p.ID() == 4 { // different cluster
			p.Read(a)
		}
		p.Barrier()
	})
	if got := run.Procs[4].Counters.PageFetches; got != 1 {
		t.Errorf("inter-cluster read fetched %d pages, want 1", got)
	}
	if dw := run.Procs[4].Cycles[stats.DataWait]; dw < 18000 {
		t.Errorf("inter-cluster fetch cost %d cycles, want SVM-class (>18k)", dw)
	}
}

func TestOneTwinPerClusterPerInterval(t *testing.T) {
	// All four processors of cluster 1 write the same remote page: only
	// the first write traps and twins.
	as, k := setup(8)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	run := k.Run("twin", func(p *sim.Proc) {
		if p.ID() >= 4 {
			p.Write(a + uint64(p.ID())*64)
		}
		p.Barrier()
	})
	if got := run.AggregateCounters().TwinsMade; got != 1 {
		t.Errorf("twins = %d, want 1 (cluster granularity)", got)
	}
}

func TestIntraClusterLockIsHardware(t *testing.T) {
	as, k := setup(8)
	_ = as
	run := k.Run("locks", func(p *sim.Proc) {
		// Only cluster 0's processors contend.
		if p.ID() < 4 {
			for i := 0; i < 10; i++ {
				p.Lock(1)
				p.Compute(10)
				p.Unlock(1)
				p.Compute(500)
			}
		}
		p.Barrier()
	})
	perLock := run.TotalCycles(stats.LockWait) / 40
	if perLock > 2500 {
		t.Errorf("intra-cluster lock cost %d cycles, want near hardware cost", perLock)
	}
}

func TestWriteNoticesCrossClusters(t *testing.T) {
	// A write in cluster 0 must invalidate cluster 1's copy at the next
	// synchronization, exactly as plain SVM does between processors.
	as, k := setup(8)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	run := k.Run("notices", func(p *sim.Proc) {
		if p.ID() == 4 {
			p.Read(a)
		}
		p.Barrier()
		if p.ID() == 0 {
			p.Write(a)
		}
		p.Barrier()
		if p.ID() == 4 {
			p.Read(a) // must re-fetch
		}
		p.Barrier()
	})
	if got := run.Procs[4].Counters.PageFetches; got != 2 {
		t.Errorf("cluster 1 fetched %d times, want 2", got)
	}
}

func TestClusterCountRounding(t *testing.T) {
	as := mem.NewAddressSpace(4096, 6)
	p := New(as, 6)
	if p.nc != 2 {
		t.Errorf("6 procs -> %d clusters, want 2", p.nc)
	}
}
