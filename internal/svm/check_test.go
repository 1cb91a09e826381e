package svm

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/protocol"
	"repro/internal/sim"
)

func setupChecked(np int) (*mem.AddressSpace, *Platform, *sim.Kernel) {
	as := mem.NewAddressSpace(4096, np)
	p := New(as, protocol.DefaultHLRCParams(), np)
	k := sim.New(p, sim.Config{NumProcs: np, BarrierManager: sim.AutoBarrierManager, Check: true})
	return as, p, k
}

// Regression: invalidating a dirty page at lock acquire must flush the
// pending diff home first (diff-on-invalidate — a multiple-writer protocol
// must not lose the node's own writes), then remove the page from the dirty
// list. The original bug: invalidateUpTo cleared the valid and dirty bits
// but left the dirty-list entry, so the page's next write appended a
// duplicate entry and the following flush diffed the page twice against a
// fresh twin (and against stale page contents).
func TestAcquireInvalidationFlushesDiff(t *testing.T) {
	as, _, k := setupChecked(2)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	run, err := k.RunErr("diff-on-invalidate", func(p *sim.Proc) {
		if p.ID() == 0 {
			// Close an interval that wrote page a, so the next acquirer
			// of lock 1 receives a write notice for it.
			p.Lock(1)
			p.Write(a)
			p.Unlock(1)
		} else {
			p.Compute(500000) // order after proc 0's release
			p.Read(a)
			p.Write(a) // fetch + twin, page now dirty
			p.Lock(1)  // notice for a: diffs home, then invalidates
			p.Write(a) // re-fetch + fresh twin
			p.Unlock(1)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	c := run.Procs[1].Counters
	if c.TwinsMade != 2 || c.DiffsCreated != 2 {
		t.Errorf("twins=%d diffs=%d, want 2/2 (every twin diffed exactly once: at the acquire and at the final flush)",
			c.TwinsMade, c.DiffsCreated)
	}
	if got := run.Procs[0].Counters.DiffsApplied; got != 2 {
		t.Errorf("home applied %d diffs, want 2 (the acquire-time diff must reach the home)", got)
	}
}

// Regression: the per-node interval counter is 32 bits and advances at every
// release and barrier arrival, so a long enough run genuinely reaches the
// limit. Wrapping to 0 would corrupt every vector-clock comparison; the
// protocol must fail loudly instead, contained by the kernel as a structured
// processor panic.
func TestIntervalOverflowFailsLoudly(t *testing.T) {
	as := mem.NewAddressSpace(4096, 2)
	pl := New(as, protocol.DefaultHLRCParams(), 2)
	k := sim.New(pl, sim.Config{NumProcs: 2, BarrierManager: sim.AutoBarrierManager})
	_, err := k.RunErr("wrap", func(p *sim.Proc) {
		if p.ID() == 0 {
			// Attach has reset the nodes by the time bodies run; force the
			// counter to the edge, then flush via a release.
			pl.eng.Doms[0].Interval = math.MaxUint32
			pl.eng.Doms[0].VC[0] = math.MaxUint32
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
	if !ok {
		t.Fatalf("panic value = %#v, want *protocol.IntervalOverflowError", pe.Value)
	}
	if ioe.Noun != "node" || ioe.Domain != 0 || pe.Proc != 0 {
		t.Errorf("overflow reported for %s %d on processor %d, want node 0 on processor 0", ioe.Noun, ioe.Domain, pe.Proc)
	}
	if !strings.Contains(err.Error(), "interval counter of node 0 would overflow") {
		t.Errorf("err = %v, want it to name node 0", err)
	}
}

// The checker audits every node's caches: a fault in one surfaces as a
// contained InvariantError naming the node. Here node 0 gets a fresh, empty
// fill filter while a line of page a is resident, so the filter would let
// an invalidation of a skip that line.
func TestCacheFaultSurfacesAsInvariantError(t *testing.T) {
	as, pl, k := setupChecked(2)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	_, err := k.RunErr("cache-fault", func(p *sim.Proc) {
		if p.ID() == 0 {
			p.Read(a)
			pl.caches[0].FilterPages(4096, int(as.NumPages())+1)
		}
		p.Barrier()
	})
	var ie *sim.InvariantError
	if !errors.As(err, &ie) || !strings.Contains(err.Error(), "svm: node 0: cache:") || !strings.Contains(err.Error(), "fill-filter") {
		t.Fatalf("err = %v, want an InvariantError naming node 0's fill filter", err)
	}
}
