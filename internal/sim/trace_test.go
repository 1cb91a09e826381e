package sim

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

func TestEmitOffIsFree(t *testing.T) {
	k := New(&NopPlatform{}, Config{NumProcs: 2})
	allocs := testing.AllocsPerRun(1000, func() {
		k.Emit(trace.PageFetch, 1, 100, 42, 7)
	})
	if allocs != 0 {
		t.Errorf("Emit with no sink allocates %.1f per call, want 0", allocs)
	}
}

func TestKernelEmitsLockAndBarrierEvents(t *testing.T) {
	k := New(&NopPlatform{}, Config{NumProcs: 4})
	c := trace.NewCounting(4)
	k.SetTraceSink(c)
	_, err := k.RunErr("locks", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Lock(7)
			p.Compute(50)
			p.Unlock(7)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Count(trace.LockRequest); got != 12 {
		t.Errorf("LockRequest events = %d, want 12", got)
	}
	if got := c.Count(trace.LockGrant); got != 12 {
		t.Errorf("LockGrant events = %d, want 12", got)
	}
	// 4 procs x 3 acquires with interleaving: at least the 3 inter-proc
	// handoffs must be transfers, and same-proc re-acquires must not be.
	xfers := c.Count(trace.LockTransfer)
	if xfers == 0 || xfers > 11 {
		t.Errorf("LockTransfer events = %d, want within (0, 11]", xfers)
	}
	if got := c.Count(trace.Barrier); got != 4 {
		t.Errorf("Barrier events = %d, want 4 (one per proc)", got)
	}
	locks := c.LockTotals()
	if len(locks) != 1 || locks[0].Lock != 7 || locks[0].Acquires != 12 {
		t.Errorf("LockTotals = %+v", locks)
	}
}

// timeline is a trace.Sampler recording each interval sample's time and
// the sum of every processor's cumulative breakdown at that time.
type timeline struct {
	every         uint64
	times, totals []uint64
}

func (*timeline) Emit(trace.Event)       {}
func (tl *timeline) SampleEvery() uint64 { return tl.every }

func (tl *timeline) Sample(now uint64, procs []stats.Proc) {
	var total uint64
	for i := range procs {
		for _, c := range procs[i].Cycles {
			total += c
		}
	}
	tl.times = append(tl.times, now)
	tl.totals = append(tl.totals, total)
}

func TestSamplerFeedsTimeline(t *testing.T) {
	k := New(&NopPlatform{}, Config{NumProcs: 2})
	tl := &timeline{every: 1000}
	k.SetTraceSink(tl)
	run, err := k.RunErr("sampled", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Compute(500)
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.times) < 2 {
		t.Fatalf("got %d samples over a %d-cycle run at interval 1000", len(tl.times), run.EndTime)
	}
	for i := 1; i < len(tl.times); i++ {
		if tl.times[i] <= tl.times[i-1] {
			t.Errorf("sample times not increasing: %d then %d", tl.times[i-1], tl.times[i])
		}
	}
	// The final sample is taken at run end with the complete breakdown.
	if tl.totals[len(tl.totals)-1] == 0 {
		t.Error("final sample has an all-zero breakdown")
	}
}

// BenchmarkKernelTracingOff guards the no-regression-when-off requirement at
// the whole-kernel level: the body synchronizes heavily so every Emit site in
// the lock/barrier path runs with no sink installed.
func BenchmarkKernelTracingOff(b *testing.B) {
	k := New(&NopPlatform{}, Config{NumProcs: 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Run("bench", func(p *Proc) {
			for j := 0; j < 100; j++ {
				p.Lock(1)
				p.Compute(10)
				p.Unlock(1)
			}
			p.Barrier()
		})
	}
}
