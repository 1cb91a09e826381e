package svm

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestCountingMatchesAggregateCounters pins that the platform's protocol
// event stream agrees exactly with its stats.Counters: a counting sink
// installed through the kernel's trace-sink hook (what svmsim -hot does)
// totals every kind to the run's aggregate counter, page by page too.
func TestCountingMatchesAggregateCounters(t *testing.T) {
	as := mem.NewAddressSpace(4096, 4)
	data := as.AllocPages(16 * 4096)
	as.DistributeBlocked(data, 16*4096)
	k := sim.New(New(as, protocol.DefaultHLRCParams(), 4), sim.Config{NumProcs: 4})
	c := trace.NewCounting(4)
	k.SetTraceSink(c)
	run := k.Run("match", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			p.Lock(1)
			p.WriteRange(data+uint64(i*4096), 256)
			p.Unlock(1)
			p.Barrier()
		}
	})

	agg := run.AggregateCounters()
	for _, w := range []struct {
		kind trace.Kind
		want uint64
	}{
		{trace.PageFetch, agg.PageFetches},
		{trace.TwinCreate, agg.TwinsMade},
		{trace.DiffCreate, agg.DiffsCreated},
		{trace.DiffApply, agg.DiffsApplied},
		{trace.Invalidate, agg.Invalidations},
		{trace.PageFault, agg.PageFaults},
		{trace.LockGrant, agg.LockAcquires},
	} {
		if got := c.Count(w.kind); got != w.want {
			t.Errorf("%s events = %d, counters say %d", w.kind, got, w.want)
		}
	}

	// Per-page fetch totals must also sum to the counter.
	var sum uint64
	for _, pt := range c.PageTotals() {
		sum += pt.Fetches
	}
	if sum != agg.PageFetches {
		t.Errorf("per-page fetches sum to %d, counters say %d", sum, agg.PageFetches)
	}
}
