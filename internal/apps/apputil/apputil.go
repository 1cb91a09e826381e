// Package apputil provides building blocks shared by the application
// reimplementations: lock-protected task queues with stealing (Volrend,
// Raytrace), block partition and processor-grid helpers, a small
// deterministic RNG so runs are reproducible across platforms, the FNV
// result fingerprint, and Head, the CT-head volume Volrend and Shear-Warp
// render. Head stores each distinct column of the head once, keyed by its
// exact distance from the axis, instead of the dense n×n×nz voxel array.
package apputil

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Split returns the half-open range [lo, hi) of n items assigned to
// processor id out of np under a contiguous block partition.
func Split(n, np, id int) (lo, hi int) {
	per := n / np
	rem := n % np
	lo = id*per + min(id, rem)
	hi = lo + per
	if id < rem {
		hi++
	}
	return lo, hi
}

// ProcGrid factors np into a near-square pr × pc processor grid: pr is the
// largest divisor of np no greater than ceil(√np).
func ProcGrid(np int) (pr, pc int) {
	pr = 1
	for pr*pr < np {
		pr++
	}
	for np%pr != 0 {
		pr--
	}
	return pr, np / pr
}

// ProcGridFloor factors np into a pr × pc processor grid with pc >= pr: pr
// is the largest divisor of np no greater than floor(√np). LU and Ocean use
// it rather than ProcGrid: the two grids differ at np = k(k+1) (2, 6, 12,
// ...), and switching would change those applications' results.
func ProcGridFloor(np int) (pr, pc int) {
	pr = int(math.Sqrt(float64(np)))
	for np%pr != 0 {
		pr--
	}
	return pr, np / pr
}

// Size is an application's problem size at scale: base×scale rounded down
// to a multiple of step, and at least floor. A scale whose size does not fit
// an int is an error naming app, not a silent clamp to floor.
func Size(app string, base, scale float64, step, floor int) (int, error) {
	f := base * scale
	if !(f < math.MaxInt) {
		return 0, fmt.Errorf("%s: scale %g makes the problem size %g, which does not fit an int", app, scale, f)
	}
	return max(int(f)/step*step, floor), nil
}

// RNG is a tiny deterministic xorshift generator. Applications must not use
// math/rand's global state so simulated runs are identical across platforms
// and repetitions.
type RNG struct{ s uint64 }

// NewRNG seeds a generator; seed 0 is mapped to a fixed constant.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{s: seed}
}

// Uint64 returns the next pseudo-random value.
func (r *RNG) Uint64() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// TaskQueue is a shared work queue whose header and entries live in the
// simulated address space. Refill, Dequeue and StealHalf perform the
// simulated memory accesses and locking a real implementation would; the
// task payloads themselves are kept in ordinary Go memory.
type TaskQueue struct {
	// LockID is the simulated lock protecting the queue; -1 means the
	// queue is accessed without locking (Raytrace's split local queues).
	LockID int

	header    uint64 // simulated address of head/tail/count words
	entryBase uint64
	entrySize uint64

	tasks []int
	head  int
}

// QueueOptions configure the simulated layout of a task queue.
type QueueOptions struct {
	// Capacity is the number of entry slots to allocate.
	Capacity int
	// EntryBytes is the simulated size of one entry (default 16).
	EntryBytes int
	// PadEntriesTo, when > 0, pads and aligns every entry to this
	// boundary (the paper's P/A transformation on task queues).
	PadEntriesTo uint64
	// LockID is the protecting lock; pass -1 for an unlocked queue.
	LockID int
}

// NewTaskQueue allocates a task queue in the simulated address space.
func NewTaskQueue(as *mem.AddressSpace, home int, o QueueOptions) *TaskQueue {
	if o.EntryBytes == 0 {
		o.EntryBytes = 16
	}
	q := &TaskQueue{LockID: o.LockID}
	q.header = as.Alloc(32)
	if o.PadEntriesTo > 0 {
		q.entrySize = o.PadEntriesTo
		q.entryBase = as.AllocAlign(o.Capacity*int(o.PadEntriesTo), o.PadEntriesTo)
	} else {
		q.entrySize = uint64(o.EntryBytes)
		q.entryBase = as.Alloc(o.Capacity * o.EntryBytes)
	}
	if home >= 0 {
		as.SetHome(q.header, 32, home)
		as.SetHome(q.entryBase, o.Capacity*int(q.entrySize), home)
	}
	return q
}

// Reset refills the queue with tasks without simulated cost (untimed setup).
func (q *TaskQueue) Reset(tasks []int) {
	q.tasks = append(q.tasks[:0], tasks...)
	q.head = 0
}

// Refill reloads the queue in bulk with one unsynchronized pass over its
// entries — how the owner reinitializes its own queue between frames.
func (q *TaskQueue) Refill(p *sim.Proc, tasks []int) {
	q.Reset(tasks)
	p.WriteRange(q.entryBase, len(tasks)*int(q.entrySize))
	p.Write(q.header)
}

// Len returns the number of tasks remaining (no simulated cost; callers use
// it for host-side control decisions only).
func (q *TaskQueue) Len() int { return len(q.tasks) - q.head }

// Peek reads the queue's count word without taking the lock — the
// test-before-test&set idiom thieves use to skip empty queues cheaply. It
// returns whether the queue appeared non-empty.
func (q *TaskQueue) Peek(p *sim.Proc) bool {
	p.Read(q.header)
	return q.Len() > 0
}

// Dequeue removes the next task, performing the simulated accesses. It
// returns ok=false when the queue is empty.
func (q *TaskQueue) Dequeue(p *sim.Proc) (task int, ok bool) {
	if q.LockID >= 0 {
		p.Lock(q.LockID)
	}
	p.Read(q.header)
	if q.head < len(q.tasks) {
		task = q.tasks[q.head]
		p.ReadRange(q.entryBase+uint64(q.head)*q.entrySize, int(q.entrySize))
		q.head++
		p.Write(q.header)
		ok = true
	}
	if q.LockID >= 0 {
		p.Unlock(q.LockID)
	}
	return task, ok
}

// StealHalf moves up to half of the victim queue's remaining tasks into dst
// (both queues' simulated state is touched); it returns how many moved.
// Stealing in bulk keeps the lock-holding pattern of the SPLASH codes.
func (q *TaskQueue) StealHalf(p *sim.Proc, dst *TaskQueue) int {
	if q.LockID >= 0 {
		p.Lock(q.LockID)
	}
	p.Read(q.header)
	n := (len(q.tasks) - q.head) / 2
	for i := 0; i < n; i++ {
		t := q.tasks[q.head]
		p.ReadRange(q.entryBase+uint64(q.head)*q.entrySize, int(q.entrySize))
		q.head++
		p.WriteRange(dst.entryBase+uint64(len(dst.tasks))*dst.entrySize, int(dst.entrySize))
		dst.tasks = append(dst.tasks, t)
	}
	if n > 0 {
		p.Write(q.header)
	}
	if q.LockID >= 0 {
		p.Unlock(q.LockID)
	}
	return n
}
