package svmsmp

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Regression: an intra-cluster write UPGRADE (write to a line the writer
// already holds Shared) must leave the writer's own cache in Modified. The
// bug: the protocol recorded the writer as line owner but cache.Access keeps
// a hit's existing state, so the line stayed Shared — inconsistent with the
// cluster's line table, and every later write by the owner paid a fresh bus
// upgrade for a line it already owned.
func TestWriteUpgradeLeavesOwnerModified(t *testing.T) {
	as := mem.NewAddressSpace(4096, 8)
	pl := New(as, DefaultParams(), 8)
	k := sim.New(pl, sim.Config{NumProcs: 8, Check: true})
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	_, err := k.RunErr("upgrade", func(p *sim.Proc) {
		if p.ID() == 0 {
			p.Read(a)
		}
		p.Barrier()
		if p.ID() == 1 { // cluster mate of 0
			p.Read(a) // both caches hold the line Shared
		}
		p.Barrier()
		if p.ID() == 1 {
			p.Write(a) // bus upgrade: invalidate proc 0, take ownership
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, st := pl.caches[1].Probe(a); st != cache.Modified {
		t.Errorf("writer's cache holds upgraded line in state %s, want M", st)
	}
}

// Regression: when a remote cluster's diff is applied at the page's home
// cluster, the home cluster's caches are invalidated AND its line table must
// drop the page's lines. The bug: only the caches were invalidated, leaving
// sharer/owner entries for lines no cache held.
func TestDiffApplyDropsHomeClusterLines(t *testing.T) {
	as := mem.NewAddressSpace(4096, 8)
	pl := New(as, DefaultParams(), 8)
	k := sim.New(pl, sim.Config{NumProcs: 8, Check: true})
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	_, err := k.RunErr("diffapply", func(p *sim.Proc) {
		if p.ID() == 0 {
			p.Read(a) // home cluster caches the page's first and last lines
			p.Read(a + 4095)
		}
		p.Barrier()
		if p.ID() == 4 { // different cluster
			p.Lock(1)
			p.Write(a)
			p.Unlock(1) // diff flushed and applied at home cluster
		}
		p.Barrier()
	})
	// The checker's final sweep cross-checks line tables against cache
	// contents; a stale home-cluster entry fails the run.
	if err != nil {
		t.Fatal(err)
	}
	for la := a / uint64(pl.LineSize()); la <= (a+4095)/uint64(pl.LineSize()); la++ {
		if e := pl.lineEng[0].Lookup(la); e != nil && e.Sharers != 0 {
			t.Errorf("home cluster line table still lists sharers %#x for line %#x after diff apply", e.Sharers, la)
		}
	}
}
