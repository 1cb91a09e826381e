package apputil

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

func TestSplitCoversExactly(t *testing.T) {
	f := func(n16 uint16, np8 uint8) bool {
		n := int(n16)
		np := int(np8)%16 + 1
		covered := 0
		prevHi := 0
		for id := 0; id < np; id++ {
			lo, hi := Split(n, np, id)
			if lo != prevHi {
				return false // gaps or overlap
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitBalance(t *testing.T) {
	for _, n := range []int{100, 1024, 1 << 20} {
		for np := 1; np <= 16; np++ {
			min, max := n, 0
			for id := 0; id < np; id++ {
				lo, hi := Split(n, np, id)
				if hi-lo < min {
					min = hi - lo
				}
				if hi-lo > max {
					max = hi - lo
				}
			}
			if max-min > 1 {
				t.Errorf("Split(%d, %d): chunk sizes differ by %d", n, np, max-min)
			}
		}
	}
}

// Size rounds base×scale down to its step and raises it to its floor, up to
// the largest float64 below 2^63; at 2^63 and beyond, and at NaN, it is an
// error naming the app instead of the floor.
func TestSize(t *testing.T) {
	for _, c := range []struct {
		base, scale       float64
		step, floor, want int
	}{
		{256, 0.25, 16, 32, 64},
		{256, 0.1, 16, 32, 32},
		{128, 0.5, 12, 8, 60},
		{1, math.Nextafter(1<<63, 0), 1, 0, 1<<63 - 1024},
	} {
		if n, err := Size("lu", c.base, c.scale, c.step, c.floor); err != nil || n != c.want {
			t.Errorf("Size(%g, %g, %d, %d) = %d, %v; want %d", c.base, c.scale, c.step, c.floor, n, err, c.want)
		}
	}
	for _, scale := range []float64{1 << 55, 1e17, 1e308, math.Inf(1), math.NaN()} {
		if n, err := Size("lu", 256, scale, 16, 32); err == nil || !strings.Contains(err.Error(), "lu: scale") {
			t.Errorf("Size(256, %g) = %d, %v; want an error naming lu", scale, n, err)
		}
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverge")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Error("zero seed must be remapped")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func queueKernel() (*sim.Kernel, *mem.AddressSpace) {
	as := mem.NewAddressSpace(4096, 2)
	return sim.New(&sim.NopPlatform{}, sim.Config{NumProcs: 2}), as
}

func TestTaskQueueFIFO(t *testing.T) {
	k, as := queueKernel()
	q := NewTaskQueue(as, 0, QueueOptions{Capacity: 16, LockID: 1})
	q.Reset([]int{3, 1, 4, 1, 5})
	var got []int
	k.Run("q", func(p *sim.Proc) {
		if p.ID() == 0 {
			for {
				v, ok := q.Dequeue(p)
				if !ok {
					break
				}
				got = append(got, v)
			}
		}
		p.Barrier()
	})
	want := []int{3, 1, 4, 1, 5}
	if len(got) != len(want) {
		t.Fatalf("dequeued %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeued %v, want %v (FIFO)", got, want)
		}
	}
}

// TestTaskQueueEnqueueDequeue: tasks the owner enqueues with a timed
// Refill are all dequeued by another processor.
func TestTaskQueueEnqueueDequeue(t *testing.T) {
	k, as := queueKernel()
	q := NewTaskQueue(as, 0, QueueOptions{Capacity: 16, LockID: 1})
	total := 0
	k.Run("q", func(p *sim.Proc) {
		if p.ID() == 0 {
			q.Refill(p, []int{10, 20})
		}
		p.Barrier()
		if p.ID() == 1 {
			for {
				v, ok := q.Dequeue(p)
				if !ok {
					break
				}
				total += v
			}
		}
		p.Barrier()
	})
	if total != 30 {
		t.Errorf("total = %d, want 30", total)
	}
}

func TestTaskQueueNoDoubleDequeue(t *testing.T) {
	// Two processors draining one queue must get each task exactly once.
	k, as := queueKernel()
	q := NewTaskQueue(as, 0, QueueOptions{Capacity: 64, LockID: 1})
	tasks := make([]int, 40)
	for i := range tasks {
		tasks[i] = i
	}
	q.Reset(tasks)
	seen := map[int]int{}
	k.Run("q", func(p *sim.Proc) {
		for {
			v, ok := q.Dequeue(p)
			if !ok {
				break
			}
			seen[v]++
			p.Compute(uint64(10 * (p.ID() + 1)))
		}
		p.Barrier()
	})
	if len(seen) != 40 {
		t.Fatalf("saw %d distinct tasks, want 40", len(seen))
	}
	for v, n := range seen {
		if n != 1 {
			t.Errorf("task %d dequeued %d times", v, n)
		}
	}
}

func TestStealHalf(t *testing.T) {
	k, as := queueKernel()
	src := NewTaskQueue(as, 0, QueueOptions{Capacity: 16, LockID: 1})
	dst := NewTaskQueue(as, 1, QueueOptions{Capacity: 16, LockID: 2})
	src.Reset([]int{1, 2, 3, 4, 5, 6})
	moved := 0
	k.Run("steal", func(p *sim.Proc) {
		if p.ID() == 1 {
			moved = src.StealHalf(p, dst)
		}
		p.Barrier()
	})
	if moved != 3 || src.Len() != 3 || dst.Len() != 3 {
		t.Errorf("moved=%d src=%d dst=%d, want 3/3/3", moved, src.Len(), dst.Len())
	}
}

func TestPaddedQueueEntriesPageAligned(t *testing.T) {
	as := mem.NewAddressSpace(4096, 2)
	q := NewTaskQueue(as, 0, QueueOptions{Capacity: 4, PadEntriesTo: 4096, LockID: 1})
	if q.entryBase%4096 != 0 {
		t.Error("padded queue entries not page aligned")
	}
	if q.entrySize != 4096 {
		t.Errorf("entry size = %d, want 4096", q.entrySize)
	}
}

func TestPeek(t *testing.T) {
	k, as := queueKernel()
	q := NewTaskQueue(as, 0, QueueOptions{Capacity: 4, LockID: 1})
	q.Reset([]int{1})
	k.Run("peek", func(p *sim.Proc) {
		if p.ID() == 0 {
			if !q.Peek(p) {
				t.Error("peek of non-empty queue returned false")
			}
			q.Dequeue(p)
			if q.Peek(p) {
				t.Error("peek of empty queue returned true")
			}
		}
		p.Barrier()
	})
}
