package sim

import (
	"testing"

	"repro/internal/trace"
)

// TestAllocFreeSingleProcRun pins the inline scheduler path at zero
// allocations per run: with NumProcs=1 the body runs directly on the kernel
// goroutine (no continuation is created), the Run object and per-proc state
// are reused in place, and streaming reads — per-line and batched — must not
// allocate. This is the kernel-side half of the kernel_stream benchmark's
// 0 allocs/op pin in BENCH_kernel.json.
func TestAllocFreeSingleProcRun(t *testing.T) {
	k := New(&NopPlatform{}, Config{NumProcs: 1})
	lines := func(p *Proc) {
		for off := uint64(0); off < 1<<12; off += 32 {
			p.Read(off)
		}
	}
	batch := func(p *Proc) { p.ReadRange(0, 1<<12); p.Compute(100) }
	k.Run("warm", lines) // first run sizes the reusable state
	if n := testing.AllocsPerRun(20, func() { k.Run("lines", lines) }); n != 0 {
		t.Errorf("per-line stream run allocates %v per run; want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { k.Run("batch", batch) }); n != 0 {
		t.Errorf("batched stream run allocates %v per run; want 0", n)
	}
}

// TestEventLoopRunAllocsBounded: the multi-processor event loop must pay
// only the fixed per-processor continuation setup (iter.Pull) per run —
// nothing proportional to the work simulated.
func TestEventLoopRunAllocsBounded(t *testing.T) {
	k := New(&NopPlatform{}, Config{NumProcs: 4})
	body := func(p *Proc) {
		for off := uint64(0); off < 1<<12; off += 32 {
			p.Read(off)
		}
		p.Barrier()
		p.ReadRange(0, 1<<12)
		p.Barrier()
	}
	k.Run("warm", body)
	short := testing.AllocsPerRun(10, func() { k.Run("s", body) })
	long := testing.AllocsPerRun(10, func() {
		k.Run("l", func(p *Proc) {
			for i := 0; i < 8; i++ {
				body(p)
			}
		})
	})
	if short == 0 {
		t.Skip("continuation setup reported 0 allocs; nothing to bound")
	}
	// Allow a few strays (coroutine stack growth); 8x the simulated work
	// must not approach 2x the allocations.
	if long >= 2*short {
		t.Errorf("event-loop allocs scale with simulated work: %v for 1x vs %v for 8x; want fixed setup cost only", short, long)
	}
}

// TestAllocFreeEmitNilSink pins the tracing-off Emit path at zero
// allocations: every protocol event site calls Emit unconditionally, so with
// no sink installed the call must cost one nil check and nothing else.
func TestAllocFreeEmitNilSink(t *testing.T) {
	k := New(&NopPlatform{}, Config{NumProcs: 1})
	if k.tr != nil {
		t.Fatal("expected no trace sink outside a run")
	}
	if n := testing.AllocsPerRun(2000, func() {
		k.Emit(trace.PageFault, 0, 1, 2, 3)
		k.Emit(trace.BusTxn, 0, 4, 5, 6)
	}); n != 0 {
		t.Fatalf("nil-sink Emit allocates %v per run; want 0", n)
	}
}
