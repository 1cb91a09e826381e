package svmsmp

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// The interval-overflow panic names the cluster whose counter would wrap,
// not a node: here cluster 1 (processors 4..7) is at the edge, and whichever
// of its members flushes first panics.
func TestIntervalOverflowFailsLoudly(t *testing.T) {
	pl := New(mem.NewAddressSpace(4096, 8), 8)
	k := sim.New(pl, sim.Config{NumProcs: 8, BarrierManager: sim.AutoBarrierManager})
	_, err := k.RunErr("wrap", func(p *sim.Proc) {
		if p.ID() == 4 {
			pl.eng.Doms[1].Interval = math.MaxUint32
			pl.eng.Doms[1].VC[1] = math.MaxUint32
			p.Lock(1)
			p.Unlock(1)
		}
		p.Barrier()
	})
	var pe *sim.ProcPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want contained ProcPanicError", err)
	}
	ioe, ok := pe.Value.(*protocol.IntervalOverflowError)
	if !ok || ioe.Noun != "cluster" || ioe.Domain != 1 || pe.Proc/clusterSize != 1 {
		t.Fatalf("panic = %#v on processor %d, want cluster 1's overflow on one of its members", pe.Value, pe.Proc)
	}
	if !strings.Contains(err.Error(), "interval counter of cluster 1 would overflow") {
		t.Errorf("err = %v, want it to name cluster 1", err)
	}
}

// Regression: an intra-cluster write UPGRADE (write to a line the writer
// already holds Shared) must leave the writer's own cache in Modified. The
// bug: the protocol recorded the writer as line owner but cache.Access keeps
// a hit's existing state, so the line stayed Shared — inconsistent with the
// cluster's line table, and every later write by the owner paid a fresh bus
// upgrade for a line it already owned.
func TestWriteUpgradeLeavesOwnerModified(t *testing.T) {
	as := mem.NewAddressSpace(4096, 8)
	pl := New(as, 8)
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
	pl := New(as, 8)
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
