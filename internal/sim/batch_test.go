package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/stats"
)

// slowLinePlatform makes every access take the slow path with a fixed
// DataWait cost, so ReadRange batches and scalar misses yield before their
// protocol accesses and are drained kernel-side across scheduling rounds. When panicAt is non-zero, the
// SlowAccess for that exact address panics — modelling protocol corruption
// detected mid-batch, on the kernel goroutine rather than inside the
// processor's continuation.
type slowLinePlatform struct {
	NopPlatform
	slowCost uint64
	panicAt  uint64
}

func (s *slowLinePlatform) FastAccess(p int, now uint64, addr uint64, write bool) (uint64, bool) {
	return 0, false
}

func (s *slowLinePlatform) SlowAccess(p int, now uint64, addr uint64, write bool) AccessCost {
	if s.panicAt != 0 && addr == s.panicAt {
		panic(fmt.Sprintf("protocol corruption at %#x", addr))
	}
	return AccessCost{DataWait: s.slowCost}
}

// TestPanicInsideKernelDrainedBatch: a panic raised while the kernel drains
// a processor's pending access (the processor's continuation is suspended
// inside ReadRange or Read at that moment) must be attributed to that
// processor, returned as the same structured *ProcPanicError as a panic in
// the body, and must unwind every suspended continuation.
func TestPanicInsideKernelDrainedBatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		addr  uint64 // the line whose SlowAccess panics
		proc0 func(p *Proc)
	}{
		// 16 slow lines: the batch yields at the first line, since proc 0
		// is not at the floor of virtual time, and is then drained
		// kernel-side, panicking at line 8.
		{"range", 8 * 32, func(p *Proc) { p.ReadRange(0, 16*32) }},
		// A scalar miss taken ahead of proc 1 yields before its protocol
		// access, which the kernel then performs once proc 0 is at the
		// floor.
		{"scalar", 3 * 32, func(p *Proc) { p.Compute(500); p.Read(3 * 32) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			pl := &slowLinePlatform{slowCost: 100, panicAt: tc.addr}
			k := New(pl, Config{NumProcs: 2})
			run, err := k.RunErr("batch-boom", func(p *Proc) {
				if p.ID() == 0 {
					tc.proc0(p)
				} else {
					p.Compute(1000)
				}
				p.Barrier()
			})
			if run != nil {
				t.Error("failed run returned non-nil stats")
			}
			var pe *ProcPanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *ProcPanicError", err)
			}
			if pe.Proc != 0 {
				t.Errorf("panic attributed to proc %d, want 0 (the access's owner)", pe.Proc)
			}
			if want := fmt.Sprintf("protocol corruption at %#x", tc.addr); !strings.Contains(err.Error(), want) {
				t.Errorf("error message lost the panic value %q: %q", want, err)
			}
			if !strings.Contains(pe.Stack, "runBatch") {
				t.Errorf("panic was not raised in the kernel-side drain:\n%s", pe.Stack)
			}
			if n := settleGoroutines(t, before); n > before {
				t.Errorf("goroutines grew from %d to %d: suspended access leaked", before, n)
			}
		})
	}
}

// TestPanicElsewhereUnwindsSuspendedBatch: when another processor panics
// while one is suspended mid-ReadRange, the unwind must run the suspended
// continuation to completion (through the batch loop) without leaking it,
// and the kernel must stay reusable with no residual batch state.
func TestPanicElsewhereUnwindsSuspendedBatch(t *testing.T) {
	before := runtime.NumGoroutine()
	pl := &slowLinePlatform{slowCost: 100}
	k := New(pl, Config{NumProcs: 3})
	body := func(p *Proc) {
		switch p.ID() {
		case 0:
			p.ReadRange(0, 1024*32) // long batch, yields mid-flight
		case 1:
			p.Compute(10)
			panic("die")
		}
		p.Barrier()
	}
	_, err := k.RunErr("boom-next-door", body)
	var pe *ProcPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ProcPanicError", err)
	}
	if pe.Proc != 1 {
		t.Errorf("panic attributed to proc %d, want 1", pe.Proc)
	}
	if n := settleGoroutines(t, before); n > before {
		t.Errorf("goroutines grew from %d to %d after unwind", before, n)
	}

	// No live state may survive: the same kernel must run cleanly and
	// deterministically afterwards.
	clean := func(p *Proc) { p.ReadRange(0, 8*32); p.Barrier() }
	r1, err := k.RunErr("after-1", clean)
	if err != nil {
		t.Fatalf("kernel not reusable after mid-batch unwind: %v", err)
	}
	end1 := r1.EndTime
	r2, err := k.RunErr("after-2", clean)
	if err != nil {
		t.Fatalf("second clean run: %v", err)
	}
	if end1 != r2.EndTime {
		t.Errorf("post-unwind runs differ: %d vs %d cycles", end1, r2.EndTime)
	}
}

// TestDeadlockAfterBatchDump: a deadlock in a run that used mid-yielding
// batches must produce the same structured *DeadlockError and state dump as
// before the event-loop rewrite, and leak nothing.
func TestDeadlockAfterBatchDump(t *testing.T) {
	before := runtime.NumGoroutine()
	pl := &slowLinePlatform{slowCost: 100}
	k := New(pl, Config{NumProcs: 2})
	_, err := k.RunErr("batch-dead", func(p *Proc) {
		if p.ID() == 0 {
			p.Lock(5)
			p.Barrier() // waits for proc 1, which waits on the lock
			p.Unlock(5)
		} else {
			p.ReadRange(0, 64*32)
			p.Lock(5)
			p.Unlock(5)
			p.Barrier()
		}
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if !strings.Contains(de.Dump, "lock 5") {
		t.Errorf("state dump missing the contended lock:\n%s", de.Dump)
	}
	if !strings.Contains(de.Dump, "barrier: 1 arrived") {
		t.Errorf("state dump missing barrier state:\n%s", de.Dump)
	}
	if n := settleGoroutines(t, before); n > before {
		t.Errorf("goroutines grew from %d to %d after deadlock", before, n)
	}
}

// TestBatchResultsMatchPerLineAccesses: a range batch must charge exactly
// what the same lines issued as individual Reads or Writes charge, whatever
// mix of fast and slow lines it covers, and a platform's FastRange must
// charge what its per-line FastAccess does. The batch is a scheduling
// optimization, not a cost model change.
func TestBatchResultsMatchPerLineAccesses(t *testing.T) {
	const n = 128 * 32
	stripe := stripePlatform{slowEvery: 4, fastStall: 3, slowCost: 70}
	for _, write := range []bool{false, true} {
		runIt := func(pl Platform, batch bool) [2]stats.Proc {
			k := New(pl, Config{NumProcs: 2})
			r := k.Run("cmp", func(p *Proc) {
				switch {
				case batch && write:
					p.WriteRange(0, n)
				case batch:
					p.ReadRange(0, n)
				default:
					for off := uint64(0); off < n; off += 32 {
						if write {
							p.Write(off)
						} else {
							p.Read(off)
						}
					}
				}
				p.Barrier()
			})
			return [2]stats.Proc{r.Procs[0], r.Procs[1]}
		}
		scalar := runIt(&stripe, false)
		perLine := runIt(&stripe, true)
		rp := &rangedStripePlatform{stripePlatform: stripe}
		ranged := runIt(rp, true)
		if rp.calls == 0 {
			t.Fatal("the kernel never called FastRange")
		}
		if perLine != scalar {
			t.Errorf("write=%v: per-line batch %+v differs from scalar accesses %+v", write, perLine, scalar)
		}
		if ranged != scalar {
			t.Errorf("write=%v: FastRange batch %+v differs from scalar accesses %+v", write, ranged, scalar)
		}
		if got := scalar[0].Counters.Reads + scalar[0].Counters.Writes; got != n/32 {
			t.Errorf("write=%v: %d accesses counted, want %d", write, got, n/32)
		}
	}
}

// stripePlatform: every slowEvery-th line is slow, the rest are fast hits
// costing fastStall each.
type stripePlatform struct {
	NopPlatform
	slowEvery uint64
	fastStall uint64
	slowCost  uint64
}

func (s *stripePlatform) FastAccess(p int, now uint64, addr uint64, write bool) (uint64, bool) {
	if (addr/32)%s.slowEvery == 0 {
		return 0, false
	}
	return s.fastStall, true
}

func (s *stripePlatform) SlowAccess(p int, now uint64, addr uint64, write bool) AccessCost {
	return AccessCost{DataWait: s.slowCost}
}

// rangedStripePlatform is stripePlatform with the bulk fast path.
type rangedStripePlatform struct {
	stripePlatform
	calls int
}

var _ RangeAccessor = (*rangedStripePlatform)(nil)

func (s *rangedStripePlatform) FastRange(p int, now uint64, addr, end uint64, write bool) (int, uint64) {
	s.calls++
	var n int
	var stall uint64
	for ; addr < end; addr += 32 {
		st, ok := s.FastAccess(p, now+stall, addr, write)
		if !ok {
			break
		}
		n++
		stall += st
	}
	return n, stall
}
