package protocol

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

var testBusCfg = cache.Config{
	L1Size: 16 << 10,
	L2Size: 1 << 20, L2Assoc: 1,
	Line: 128,
}

// testBusMachine builds a bus machine on the given bus (NewBusMachine pins
// MachineBus; a cluster bus is reached in production through the two-level
// platform, one per cluster).
func testBusMachine(cluster int, as *mem.AddressSpace, np int) *HW {
	p := DefaultBusParams()
	return &HW{
		name: "test-bus", sts: MESI, cfg: testBusCfg, as: as, np: np,
		tr:          &SnoopBus{P: p, Cluster: cluster},
		l2HitCost:   p.L2HitCost,
		lockRelease: p.LockRelease,
		barrierHW:   p.BarrierHW,
		barrierLeaf: p.BarrierLeaf,
	}
}

// upgradeDataWait runs three readers then one writer on a shared line and
// returns the writer's DataWait. writerHolds controls whether the writer read
// the line first (so its own copy is Shared at upgrade time) or never held it.
func upgradeDataWait(t *testing.T, cluster int, writerHolds bool) uint64 {
	t.Helper()
	as := mem.NewAddressSpace(4096, 4)
	pl := testBusMachine(cluster, as, 4)
	k := sim.New(pl, sim.Config{NumProcs: 4, Check: true})
	a := as.AllocPages(4096)
	run, err := k.RunErr("upgrade", func(p *sim.Proc) {
		if writerHolds && p.ID() == 0 {
			p.Read(a)
		}
		p.Barrier()
		if p.ID() != 0 {
			p.Read(a)
		}
		p.Barrier()
		if p.ID() == 0 {
			p.Write(a)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return run.Procs[0].Cycles[stats.DataWait]
}

// Pinned regression for the upgrade-invalidation divergence the platform
// clones had silently grown: the machine-wide smp bus
// charged n × InvalPer per remote sharer (plus a MemLat refetch when the
// writer's own copy was evicted), while the two-level platform's cluster
// buses charged a single InvalPer. Both accountings now follow from which
// bus a SnoopBus is (SnoopBus.Cluster); these tests pin the exact cycle
// charges of each so neither can silently drift into the other again.
func TestUpgradeAccountingPerSharer(t *testing.T) {
	p := DefaultBusParams()
	wait := p.BusArb + p.BusXfer // uncontended bus: arb + line transfer

	// Writer holds the line Shared: pay one InvalPer per remote sharer.
	if got, want := upgradeDataWait(t, MachineBus, true), wait+3*p.InvalPer; got != want {
		t.Errorf("per-sharer upgrade (writer holds line): DataWait = %d, want %d", got, want)
	}
	// Writer's copy gone: same sweep plus a memory refetch of the line.
	if got, want := upgradeDataWait(t, MachineBus, false), wait+3*p.InvalPer+p.MemLat; got != want {
		t.Errorf("per-sharer upgrade (writer evicted): DataWait = %d, want %d", got, want)
	}
}

func TestUpgradeAccountingBroadcast(t *testing.T) {
	p := DefaultBusParams()
	wait := p.BusArb + p.BusXfer

	// One broadcast invalidation regardless of sharer count, never a refetch.
	for _, holds := range []bool{true, false} {
		if got, want := upgradeDataWait(t, 0, holds), wait+p.InvalPer; got != want {
			t.Errorf("broadcast upgrade (writerHolds=%v): DataWait = %d, want %d", holds, got, want)
		}
	}
}
