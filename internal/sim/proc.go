package sim

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/trace"
)

type opKind int

const (
	opYield opKind = iota // cooperative yield; still ready
	opPark                // blocked on a lock or barrier
	opDone                // body returned
	opBatch               // yielded mid-batch; the kernel drains the rest in place
)

// batchState is a resumable range access: the lines of [addr, end) not yet
// touched, plus whether the line at addr has already taken its fast-path
// miss decision and is waiting for protocol processing at a syncPoint.
type batchState struct {
	addr        uint64
	end         uint64
	write       bool
	pendingSlow bool
}

// Proc is the handle a simulated process uses to charge compute time, issue
// memory references and synchronize. All methods must be called from the
// process's own body function. A Proc is plain state owned by the kernel's
// event loop — in multi-processor runs the body executes on a resumable
// continuation, in single-processor runs directly on the kernel goroutine.
type Proc struct {
	id    int
	k     *Kernel
	clock uint64
	state procState
	op    opKind

	sliceStart uint64      // clock at last pick, for quantum bounding
	stp        *stats.Proc // this processor's accounting record for the run

	// Continuation (multi-processor runs only). yield suspends the body and
	// returns control to the event loop; next resumes it; stop unwinds it.
	yield func(struct{}) bool
	next  func() (struct{}, bool)
	stop  func()

	panicked any
	stack    string // stack captured where panicked was recovered

	batch batchState // pending resumable range access, valid while op == opBatch
}

// ID returns the processor number (0-based).
func (p *Proc) ID() int { return p.id }

// NP returns the number of processors in the run.
func (p *Proc) NP() int { return p.k.cfg.NumProcs }

// Now returns the processor's virtual clock in cycles.
func (p *Proc) Now() uint64 { return p.clock }

// Kernel returns the owning kernel (for platform-aware applications).
func (p *Proc) Kernel() *Kernel { return p.k }

// switchOut suspends the body and returns control to the event loop with
// whatever p.op the caller has set. A false return means the kernel is
// unwinding a failed run: raise the abortSim sentinel, recovered silently
// by the continuation wrapper in start.
func (p *Proc) switchOut() {
	if !p.yield(struct{}{}) {
		panic(abortSim{})
	}
}

// yieldNow hands control back to the scheduler, remaining ready.
func (p *Proc) yieldNow() {
	p.op = opYield
	p.switchOut()
}

// park blocks until another process makes this one ready again. In a
// single-processor run there is nobody to do that, so parking is reported
// immediately as the deadlock it is.
func (p *Proc) park() {
	p.state = stParked
	k := p.k
	if k.inline {
		panic(inlineAbort{err: &DeadlockError{Dump: k.stateDump(), Recent: k.recentEvents()}})
	}
	p.op = opPark
	p.switchOut()
}

// checkpoint yields if this processor has run past the next-ready
// processor's clock and has used up its quantum slice, keeping global event
// processing in near virtual-time order.
func (p *Proc) checkpoint() {
	if p.clock > p.k.horizon && p.clock-p.sliceStart >= p.k.cfg.Quantum {
		p.yieldNow()
	}
}

// syncPoint yields if this processor is ahead of the next-ready processor;
// called before globally-visible protocol and synchronization events so they
// process in near virtual-time order regardless of quantum.
func (p *Proc) syncPoint() {
	for p.clock > p.k.horizon {
		p.yieldNow()
	}
}

// Compute charges n cycles of application instruction execution.
func (p *Proc) Compute(n uint64) {
	p.clock += n
	p.stp.Cycles[stats.Compute] += n
	p.checkpoint()
}

// access performs one line-sized reference.
func (p *Proc) access(addr uint64, write bool) {
	c := p.stp
	if write {
		c.Counters.Writes++
	} else {
		c.Counters.Reads++
	}
	if stall, ok := p.k.plat.FastAccess(p.id, p.clock, addr, write); ok {
		p.clock += stall
		c.Cycles[stats.CacheStall] += stall
		return
	}
	p.syncPoint()
	cost := p.k.plat.SlowAccess(p.id, p.clock, addr, write)
	if p.k.cfg.FreeCSFaults && p.k.locksHeld[p.id] > 0 {
		// Paper diagnostic: faults inside critical sections are free.
		cost = AccessCost{}
	}
	p.clock += cost.Total()
	c.Cycles[stats.CacheStall] += cost.CacheStall
	c.Cycles[stats.DataWait] += cost.DataWait
	c.Cycles[stats.Handler] += cost.Handler
	p.checkpoint()
}

// Read issues a read of the (word-sized) datum at addr.
func (p *Proc) Read(addr uint64) { p.access(addr, false) }

// Write issues a write of the (word-sized) datum at addr.
func (p *Proc) Write(addr uint64) { p.access(addr, true) }

// rangeAccess touches every cache line overlapping [addr, addr+n), as a
// resumable batch: the batch advances in place until it needs to wait for
// virtual time, then yields to the event loop, which keeps draining it
// kernel-side across scheduling rounds and only switches back into the body
// once the batch is finished.
func (p *Proc) rangeAccess(addr uint64, n int, write bool) {
	if n <= 0 {
		return
	}
	k := p.k
	b := &p.batch
	b.addr = addr &^ (k.lineSize - 1)
	b.end = addr + uint64(n)
	b.write = write
	b.pendingSlow = false
	for !k.stepBatch(p) {
		// stepBatch set op = opBatch; on resume the kernel has usually
		// drained the rest already and the re-check returns immediately.
		p.switchOut()
	}
}

// Stall charges additional CPU-cache stall cycles directly. Applications use
// it to extrapolate inner-loop reuse misses they have measured with a probe
// walk, without simulating every repeated access.
func (p *Proc) Stall(n uint64) {
	p.clock += n
	p.stp.Cycles[stats.CacheStall] += n
	p.checkpoint()
}

// CacheStallCycles returns the accumulated CPU-cache stall time, letting
// applications measure the cost of a probe walk (see Stall).
func (p *Proc) CacheStallCycles() uint64 { return p.stp.Cycles[stats.CacheStall] }

// ReadRange reads every cache line overlapping [addr, addr+n).
func (p *Proc) ReadRange(addr uint64, n int) { p.rangeAccess(addr, n, false) }

// WriteRange writes every cache line overlapping [addr, addr+n).
func (p *Proc) WriteRange(addr uint64, n int) { p.rangeAccess(addr, n, true) }

// Lock acquires the given lock, waiting in virtual time if it is held.
func (p *Proc) Lock(id int) {
	p.syncPoint()
	start := p.clock
	k := p.k
	l := k.lockFor(id)
	reqCost := k.plat.LockRequest(p.id, p.clock, id)
	p.stp.Counters.LockAcquires++
	k.Emit(trace.LockRequest, p.id, start, uint64(id), reqCost)
	w := lockWaiter{p: p, reqStart: start, reqReady: start + reqCost}
	if l.held {
		l.queue = append(l.queue, w)
		p.park()
		// grantLock set our clock and charged LockWait before waking us.
	} else {
		k.grantLock(l, id, w)
	}
	k.locksHeld[p.id]++
	p.checkpoint()
}

// Unlock releases the given lock and hands it to the next waiter, if any.
func (p *Proc) Unlock(id int) {
	p.syncPoint()
	k := p.k
	l := k.lockFor(id)
	if !l.held || l.holder != p.id {
		panic("sim: Unlock of a lock not held by this processor")
	}
	sync, handler, freeDelay := k.plat.LockRelease(p.id, p.clock, id)
	c := p.stp
	p.clock += sync + handler
	c.Cycles[stats.LockWait] += sync
	c.Cycles[stats.Handler] += handler
	l.held = false
	l.prevHolder = p.id
	l.holder = -1
	l.freeAt = p.clock + freeDelay
	k.locksHeld[p.id]--
	if len(l.queue) > 0 {
		w := l.queue[0]
		copy(l.queue, l.queue[1:])
		l.queue = l.queue[:len(l.queue)-1]
		k.grantLock(l, id, w)
		k.noteReady(w.p)
	}
	p.checkpoint()
}

// grantLock hands lock id to waiter w: computes the grant time, performs the
// platform's acquire-side consistency actions, sets the waiter's clock and
// charges its Lock Wait. A parked waiter is made ready by the caller.
func (k *Kernel) grantLock(l *lockState, id int, w lockWaiter) {
	xfer := l.prevHolder >= 0 && l.prevHolder != w.p.id
	granted := w.reqReady
	if l.freeAt > granted {
		granted = l.freeAt
	}
	granted += k.plat.LockGrant(w.p.id, granted, id, l.prevHolder)
	l.held = true
	l.holder = w.p.id
	w.p.clock = granted
	w.p.stp.Cycles[stats.LockWait] += granted - w.reqStart
	k.Emit(trace.LockGrant, w.p.id, w.reqStart, uint64(id), granted-w.reqStart)
	if xfer {
		k.Emit(trace.LockTransfer, w.p.id, granted, uint64(id), 0)
	}
}

// Barrier joins the global barrier across all processors. The last arrival
// computes the release time; everyone's Barrier Wait Time covers arrival
// overhead, the wait for stragglers, and departure consistency actions.
func (p *Proc) Barrier() {
	p.syncPoint()
	k := p.k
	start := p.clock
	syncCost, handler := k.plat.BarrierArrive(p.id, p.clock)
	c := p.stp
	c.Counters.Barriers++
	c.Cycles[stats.Handler] += handler
	c.Cycles[stats.BarrierWait] += syncCost
	arrived := start + syncCost + handler
	b := &k.bar
	b.arrivals[p.id] = arrived
	b.starts[p.id] = start
	b.count++
	if b.count < k.cfg.NumProcs {
		b.waiting = append(b.waiting, p)
		p.clock = arrived
		p.park()
		p.checkpoint()
		return
	}
	// Last arrival: release everyone. Waiting from completed arrival to
	// departure is charged to Barrier Wait (arrival overhead was charged
	// above; flush work went to Handler).
	release := k.plat.BarrierRelease(b.arrivals, k.cfg.BarrierManager)
	for _, q := range b.waiting {
		depart := release + k.plat.BarrierDepart(q.id, release)
		if depart < b.arrivals[q.id] {
			// A platform returning a release earlier than an arrival
			// would silently underflow the wait charge below.
			panic(fmt.Sprintf("sim: barrier departure %d before proc %d's arrival %d", depart, q.id, b.arrivals[q.id]))
		}
		k.run.Procs[q.id].Cycles[stats.BarrierWait] += depart - b.arrivals[q.id]
		q.clock = depart
		k.Emit(trace.Barrier, q.id, b.starts[q.id], b.epoch, depart-b.starts[q.id])
		k.noteReady(q)
	}
	depart := release + k.plat.BarrierDepart(p.id, release)
	if depart < arrived {
		panic(fmt.Sprintf("sim: barrier departure %d before proc %d's arrival %d", depart, p.id, arrived))
	}
	c.Cycles[stats.BarrierWait] += depart - arrived
	p.clock = depart
	k.Emit(trace.Barrier, p.id, start, b.epoch, depart-start)
	b.count = 0
	b.waiting = b.waiting[:0]
	b.epoch++
	for i := range b.arrivals {
		b.arrivals[i] = 0
		b.starts[i] = 0
	}
	p.checkpoint()
}

// RecordPhase adds cycles to a named phase in the run's phase table.
func (p *Proc) RecordPhase(name string, cycles uint64) {
	p.k.run.RecordPhase(name, cycles)
}

// CountTask records task-queue behaviour for the run (paper's task-stealing
// analyses).
func (p *Proc) CountTask(stolen bool) {
	c := p.stp
	c.Counters.TasksRun++
	if stolen {
		c.Counters.TasksStolen++
	}
}
