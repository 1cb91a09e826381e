package sim

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Config controls a simulated run.
type Config struct {
	// NumProcs is the number of simulated processors.
	NumProcs int
	// Quantum bounds how far a processor's clock may run ahead of the
	// next-ready processor before it must yield at a checkpoint. Smaller
	// quanta give tighter event ordering at higher handoff cost.
	// Defaults to 2000 cycles.
	Quantum uint64
	// BarrierManager is the processor charged with centralized barrier
	// protocol work (the paper's LU analysis hinges on processor 10 being
	// the manager of the most important barrier). AutoBarrierManager (any
	// negative value) selects the paper's placement — NumProcs-6 when
	// NumProcs >= 8 (so 10 for 16 processors), else 0. An explicit value,
	// including 0, pins the manager to that processor; an explicit value
	// >= NumProcs is a configuration error reported by RunErr.
	BarrierManager int
	// FreeCSFaults, when true, makes data-access costs inside critical
	// sections free — the paper's diagnostic for critical-section
	// dilation ("we pretended in the simulator that the page faults
	// within the critical sections are free").
	FreeCSFaults bool
	// Check enables runtime invariant checking: the scheduler verifies
	// virtual-time monotonicity at every pick, the platform's protocol
	// invariants are swept at exponentially spaced intervals and at the
	// end of the run (see InvariantChecked), and the final statistics must
	// satisfy the accounting identity that each processor's breakdown
	// categories sum to its final clock. A violation is returned from
	// RunErr as a contained *InvariantError.
	Check bool
}

// AutoBarrierManager selects the paper's default barrier-manager placement.
// It is distinct from 0 so that processor 0 is explicitly selectable (an
// earlier version of Config treated 0 as "unset" and silently overrode it).
const AutoBarrierManager = -1

func (c Config) withDefaults() Config {
	if c.NumProcs <= 0 {
		c.NumProcs = 1
	}
	if c.Quantum == 0 {
		c.Quantum = 2000
	}
	if c.BarrierManager < 0 {
		if c.NumProcs >= 8 {
			c.BarrierManager = c.NumProcs - 6
		} else {
			c.BarrierManager = 0
		}
	}
	return c
}

// validate rejects configurations withDefaults cannot repair. An explicit
// BarrierManager at or beyond NumProcs used to be silently clamped to the
// last processor — the same class of silent misconfiguration as the old
// 0-sentinel bug, and one that quietly moved the paper's manager-placement
// analysis onto the wrong processor. It is now a structured error.
func (c Config) validate() error {
	if c.BarrierManager >= c.NumProcs {
		return &ConfigError{
			Field: "BarrierManager",
			Detail: fmt.Sprintf("manager processor %d does not exist with NumProcs=%d (use AutoBarrierManager for the paper's placement)",
				c.BarrierManager, c.NumProcs),
		}
	}
	return nil
}

type procState int

const (
	stReady procState = iota
	stRunning
	stParked
	stDone
)

// noHorizon is the yield horizon when no other processor is ready: the
// running processor may advance unboundedly without yielding.
const noHorizon = ^uint64(0)

type lockState struct {
	held       bool
	holder     int
	prevHolder int
	freeAt     uint64 // earliest grantable time once released
	queue      []lockWaiter
}

type lockWaiter struct {
	p        *Proc
	reqStart uint64 // clock when Lock() was called
	reqReady uint64 // reqStart + request cost
}

type barrierState struct {
	arrivals []uint64 // completed arrival time per proc; 0 = not arrived
	starts   []uint64 // clock at Barrier() entry per proc, for trace episodes
	waiting  []*Proc
	count    int
	epoch    uint64
}

// Kernel is the deterministic event-loop scheduler binding application
// processes to a Platform. Simulated processors are plain state, not
// goroutines: the kernel pops the ready processor with the smallest virtual
// clock from a priority heap and resumes its continuation (or drains its
// pending access batch in place) until it yields, parks, or finishes.
type Kernel struct {
	cfg  Config
	plat Platform
	run  *stats.Run

	procs   []Proc
	ready   []*Proc // min-heap on (clock, id): the ready processors
	horizon uint64  // clock of the next-min ready proc while one runs
	inline  bool    // NumProcs==1: body runs directly on the kernel goroutine

	// lineSize caches the platform's range-access granularity so rangeAccess
	// does not repeat an interface assertion per call.
	lineSize uint64
	// ranger caches the platform's optional bulk fast path (see RangeAccessor).
	ranger RangeAccessor

	pendingHandler []uint64 // handler debt charged by remote protocol work
	locksHeld      []int    // nesting depth of locks held per proc
	locks          map[int]*lockState
	bar            barrierState

	running bool

	// Invariant checking state (Config.Check).
	lastPickClock uint64 // virtual-time floor at the previous pick
	picks         uint64
	nextCheck     uint64 // pick count of the next platform sweep

	// Tracing. tr is the active sink for the current run (nil when tracing
	// is off — the fast path every event site branches on); it is rebuilt
	// each run as the Tee of the persistent user sink and the post-mortem
	// ring.
	tr          trace.Sink
	userSink    trace.Sink
	ring        *trace.Ring
	sampler     trace.Sampler
	sampleEvery uint64
	nextSample  uint64
	lastSample  uint64
}

// New creates a kernel for the given platform and configuration.
func New(plat Platform, cfg Config) *Kernel {
	cfg = cfg.withDefaults()
	k := &Kernel{
		cfg:            cfg,
		plat:           plat,
		pendingHandler: make([]uint64, cfg.NumProcs),
		locksHeld:      make([]int, cfg.NumProcs),
		locks:          map[int]*lockState{},
	}
	k.lineSize = 32
	if la, ok := plat.(interface{ LineSize() int }); ok {
		k.lineSize = uint64(la.LineSize())
	}
	k.ranger, _ = plat.(RangeAccessor)
	k.bar.arrivals = make([]uint64, cfg.NumProcs)
	k.bar.starts = make([]uint64, cfg.NumProcs)
	return k
}

// SetTraceSink installs a protocol event sink that persists across runs
// (nil turns user tracing off). The sink receives every event of subsequent
// runs; if it also implements trace.Sampler and a sample interval is set, it
// receives interval breakdown samples too.
func (k *Kernel) SetTraceSink(s trace.Sink) { k.userSink = s }

// SetTraceRing installs a post-mortem ring keeping the last n protocol
// events; the ring's contents are attached to ProcPanicError/DeadlockError
// so contained failures are self-diagnosing. n <= 0 removes the ring. The
// returned ring can also be inspected after a successful run.
func (k *Kernel) SetTraceRing(n int) *trace.Ring {
	if n <= 0 {
		k.ring = nil
		return nil
	}
	k.ring = trace.NewRing(n)
	return k.ring
}

// SetSampleInterval enables interval time-series sampling: every `cycles` of
// virtual time, sinks implementing trace.Sampler receive a snapshot of the
// per-processor breakdown categories. 0 disables sampling.
func (k *Kernel) SetSampleInterval(cycles uint64) { k.sampleEvery = cycles }

// Emit records one protocol event. With no sink installed this is a single
// branch and allocates nothing, so platforms call it unconditionally from
// event sites.
func (k *Kernel) Emit(kind trace.Kind, proc int, now, arg, cost uint64) {
	if k.tr == nil {
		return
	}
	k.tr.Emit(trace.Event{Time: now, Cost: cost, Arg: arg, Proc: int32(proc), Kind: kind})
}

// sample delivers one breakdown snapshot and advances the sample clock past
// now.
func (k *Kernel) sample(now uint64) {
	k.sampler.Sample(now, k.run.Procs)
	k.lastSample = now
	for k.nextSample <= now {
		k.nextSample += k.sampleEvery
	}
}

// recentEvents snapshots the post-mortem ring for error rendering.
func (k *Kernel) recentEvents() []trace.Event {
	if k.ring == nil {
		return nil
	}
	return k.ring.Snapshot()
}

// NumProcs returns the number of simulated processors.
func (k *Kernel) NumProcs() int { return k.cfg.NumProcs }

// Config returns the run configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Counters returns processor p's event counters for platform updates.
func (k *Kernel) Counters(p int) *stats.Counters { return &k.run.Procs[p].Counters }

// ChargeHandler charges protocol handler work performed on behalf of others
// to processor node (e.g. a home node applying a diff or serving a page).
// The debt is folded into node's clock and Handler time the next time it
// runs, modelling interrupt-style message handling.
func (k *Kernel) ChargeHandler(node int, cycles uint64) {
	k.pendingHandler[node] += cycles
}

// Run executes body once per simulated processor and returns the collected
// statistics. name labels the resulting stats.Run. It is a thin wrapper
// around RunErr that panics on simulation failure, preserving the historical
// crash-on-misbehavior contract for tests and examples.
func (k *Kernel) Run(name string, body func(p *Proc)) *stats.Run {
	run, err := k.RunErr(name, body)
	if err != nil {
		panic(err)
	}
	return run
}

// RunErr executes body once per simulated processor and returns the
// collected statistics. A panic in any processor body is recovered and
// returned as a *ProcPanicError; a synchronization deadlock (no runnable
// processor before every body returned) is returned as a *DeadlockError
// carrying the kernel state dump; an invalid configuration is returned as a
// *ConfigError before anything runs. In both failure cases every remaining
// processor continuation is unwound before RunErr returns, so a failed
// simulation leaks nothing and the kernel can be reused.
//
// The returned *stats.Run is owned by the kernel and reused by its next
// run: callers that need results from two runs of the same kernel must copy
// what they retain before calling RunErr again. (The harness creates one
// kernel per execution, so memoized figure results are unaffected.)
func (k *Kernel) RunErr(name string, body func(p *Proc)) (*stats.Run, error) {
	if k.running {
		return nil, fmt.Errorf("sim: kernel already running")
	}
	if err := k.cfg.validate(); err != nil {
		return nil, err
	}
	k.running = true
	defer func() { k.running = false }()

	np := k.cfg.NumProcs
	// Reuse the previous run's result object and the kernel's scheduling
	// state in place: a kernel that is run repeatedly (the micro-benchmarks,
	// parameter sweeps over one platform instance) allocates nothing per run.
	if k.run != nil && cap(k.run.Procs) >= np {
		k.run.Reset(name, np)
	} else {
		k.run = stats.NewRun(name, np)
	}
	if k.ring != nil {
		k.ring.Reset()
	}
	k.plat.Attach(k)
	k.tr = trace.Tee(k.userSink, ringSink(k.ring))
	k.sampler = nil
	if k.sampleEvery > 0 && k.tr != nil {
		if sp, ok := k.tr.(trace.Sampler); ok {
			k.sampler = sp
			k.nextSample = k.sampleEvery
			k.lastSample = 0
		}
	}
	for i := range k.pendingHandler {
		k.pendingHandler[i] = 0
		k.locksHeld[i] = 0
	}
	clear(k.locks)
	k.bar.count = 0
	k.bar.epoch = 0
	k.bar.waiting = k.bar.waiting[:0]
	for i := range k.bar.arrivals {
		k.bar.arrivals[i] = 0
		k.bar.starts[i] = 0
	}
	k.lastPickClock = 0
	k.picks = 0
	k.nextCheck = 1024

	if cap(k.procs) >= np {
		k.procs = k.procs[:np]
	} else {
		k.procs = make([]Proc, np)
	}
	for i := range k.procs {
		k.procs[i] = Proc{id: i, k: k, stp: &k.run.Procs[i]}
	}
	k.inline = np == 1

	var runErr error
	if k.inline {
		runErr = k.runInline(body)
	} else {
		runErr = k.eventLoop(body)
	}
	if runErr != nil {
		return nil, runErr
	}

	var end uint64
	for i := range k.procs {
		p := &k.procs[i]
		k.applyDebt(p)
		if p.clock > end {
			end = p.clock
		}
	}
	k.run.EndTime = end
	if k.cfg.Check {
		if err := k.checkFinal(); err != nil {
			return nil, err
		}
	}
	if k.sampler != nil && end > k.lastSample {
		// Final sample so time series cover the whole run (skipped when a
		// regular sample already landed exactly at the end time).
		k.sampler.Sample(end, k.run.Procs)
	}
	return k.run, nil
}

// runInline executes a single-processor run directly on the kernel
// goroutine: with no other processor to interleave with, the horizon is
// unbounded, no yield point ever fires, and the body runs to completion in
// one slice with zero continuation switches and zero allocations. A park is
// necessarily a deadlock and surfaces as the inlineAbort sentinel; any other
// panic is the body's own.
func (k *Kernel) runInline(body func(p *Proc)) (err error) {
	p := &k.procs[0]
	defer func() {
		if r := recover(); r != nil {
			if ab, ok := r.(inlineAbort); ok {
				err = ab.err
				return
			}
			err = &ProcPanicError{Proc: 0, Value: r, Stack: string(debug.Stack()), Recent: k.recentEvents()}
		}
	}()
	// The run's single scheduling pick.
	if k.sampler != nil && p.clock >= k.nextSample {
		k.sample(p.clock)
	}
	if k.cfg.Check {
		if cerr := k.checkTick(p); cerr != nil {
			return cerr
		}
	}
	k.applyDebt(p)
	p.state = stRunning
	p.sliceStart = p.clock
	k.horizon = noHorizon
	body(p)
	p.state = stDone
	return nil
}

// eventLoop is the multi-processor scheduler: pop the ready processor with
// the smallest (clock, id) from the heap, resume it — either by draining its
// pending access batch in place on the kernel goroutine, or by switching
// into its continuation — and file it back according to how it yielded.
func (k *Kernel) eventLoop(body func(p *Proc)) error {
	for i := range k.procs {
		k.procs[i].start(body)
	}
	k.ready = k.ready[:0]
	for i := range k.procs {
		k.heapPush(&k.procs[i])
	}
	live := len(k.procs)
	for live > 0 {
		p := k.pickReady()
		if p == nil {
			err := &DeadlockError{Dump: k.stateDump(), Recent: k.recentEvents()}
			k.unwind()
			return err
		}
		// p's clock is the minimum over ready processors, i.e. the floor of
		// global virtual time: sample the breakdown when it crosses the
		// next interval boundary.
		if k.sampler != nil && p.clock >= k.nextSample {
			k.sample(p.clock)
		}
		if k.cfg.Check {
			if err := k.checkTick(p); err != nil {
				k.unwind()
				return err
			}
		}
		k.applyDebt(p)
		p.state = stRunning
		p.sliceStart = p.clock
		var op opKind
		if p.op == opBatch {
			op = k.runBatch(p)
		} else {
			op = p.resumeCoro()
		}
		switch op {
		case opYield, opBatch:
			p.state = stReady
			k.heapPush(p)
		case opPark:
			// state already stParked, set by the blocking path.
		case opDone:
			p.state = stDone
			live--
			if p.panicked != nil {
				err := &ProcPanicError{Proc: p.id, Value: p.panicked, Stack: p.stack, Recent: k.recentEvents()}
				k.unwind()
				return err
			}
		}
	}
	return nil
}

// runBatch advances p's pending access batch on the kernel goroutine. When
// the batch completes it switches into p's continuation so the body resumes
// in the same scheduling round, exactly as the old per-goroutine kernel
// continued a body after its range finished. A platform panic while draining
// (the batch runs platform code kernel-side) is attributed to p.
func (k *Kernel) runBatch(p *Proc) (op opKind) {
	defer func() {
		if r := recover(); r != nil {
			p.panicked = r
			p.stack = string(debug.Stack())
			op = opDone
		}
	}()
	if k.stepBatch(p) {
		return p.resumeCoro()
	}
	return opBatch
}

// stepBatch advances p's access batch until it completes (true) or p must
// yield (false, with p.op set to opBatch). It replays exactly the cost and
// yield structure of the scalar access path: fast accesses never yield, a
// protocol access waits at a syncPoint until p is at the virtual-time floor,
// and a checkpoint after each protocol access bounds the slice by Quantum.
func (k *Kernel) stepBatch(p *Proc) bool {
	b := &p.batch
	c := p.stp
	line := k.lineSize
	quantum := k.cfg.Quantum
	plat := k.plat
	for b.addr < b.end {
		if !b.pendingSlow {
			if k.ranger != nil {
				// Bulk fast path: the fast prefix of a batch has no yield
				// points, so the platform may process it in one call.
				n, stall := k.ranger.FastRange(p.id, p.clock, b.addr, b.end, b.write)
				if n > 0 {
					if b.write {
						c.Counters.Writes += uint64(n)
					} else {
						c.Counters.Reads += uint64(n)
					}
					p.clock += stall
					c.Cycles[stats.CacheStall] += stall
					b.addr += uint64(n) * line
					if b.addr >= b.end {
						break
					}
				}
				// The line at b.addr needs protocol processing.
				if b.write {
					c.Counters.Writes++
				} else {
					c.Counters.Reads++
				}
				b.pendingSlow = true
			} else {
				if b.write {
					c.Counters.Writes++
				} else {
					c.Counters.Reads++
				}
				if stall, ok := plat.FastAccess(p.id, p.clock, b.addr, b.write); ok {
					p.clock += stall
					c.Cycles[stats.CacheStall] += stall
					b.addr += line
					continue
				}
				b.pendingSlow = true
			}
		}
		// syncPoint: protocol events process in virtual-time order.
		if p.clock > k.horizon {
			p.op = opBatch
			return false
		}
		cost := plat.SlowAccess(p.id, p.clock, b.addr, b.write)
		if k.cfg.FreeCSFaults && k.locksHeld[p.id] > 0 {
			// Paper diagnostic: faults inside critical sections are free.
			cost = AccessCost{}
		}
		p.clock += cost.Total()
		c.Cycles[stats.CacheStall] += cost.CacheStall
		c.Cycles[stats.DataWait] += cost.DataWait
		c.Cycles[stats.Handler] += cost.Handler
		b.pendingSlow = false
		b.addr += line
		// checkpoint: quantum-bounded yield after protocol work.
		if p.clock > k.horizon && p.clock-p.sliceStart >= quantum {
			p.op = opBatch
			return false
		}
	}
	return true
}

// ringSink widens the concrete ring to a Sink, keeping the nil case a nil
// interface so Tee drops it (a nil *Ring in a Sink slot would not be nil).
func ringSink(r *trace.Ring) trace.Sink {
	if r == nil {
		return nil
	}
	return r
}

// unwind stops every processor continuation after a failed run. Stopping a
// continuation makes its pending (or next) yield return false, which raises
// the abortSim sentinel inside the body; the continuation wrapper recovers
// it silently, so no coroutine outlives the run. Continuations that never
// started simply never run their body.
func (k *Kernel) unwind() {
	for i := range k.procs {
		p := &k.procs[i]
		if p.stop != nil {
			p.stop()
		}
		p.state = stDone
	}
}

// procLess orders the ready heap by (clock, id): the processor at the floor
// of global virtual time runs next, ties broken by processor number.
func procLess(a, b *Proc) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.id < b.id)
}

// heapPush files p into the ready heap.
func (k *Kernel) heapPush(p *Proc) {
	k.ready = append(k.ready, p)
	i := len(k.ready) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !procLess(k.ready[i], k.ready[parent]) {
			break
		}
		k.ready[i], k.ready[parent] = k.ready[parent], k.ready[i]
		i = parent
	}
}

// pickReady pops the ready processor with the smallest (clock, id) and
// records the new heap minimum as the yield horizon — the clock the running
// processor must not outrun past its quantum.
func (k *Kernel) pickReady() *Proc {
	n := len(k.ready)
	if n == 0 {
		k.horizon = noHorizon
		return nil
	}
	best := k.ready[0]
	last := k.ready[n-1]
	k.ready = k.ready[:n-1]
	n--
	if n == 0 {
		k.horizon = noHorizon
		return best
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && procLess(k.ready[r], k.ready[c]) {
			c = r
		}
		if !procLess(k.ready[c], last) {
			break
		}
		k.ready[i] = k.ready[c]
		i = c
	}
	k.ready[i] = last
	k.horizon = k.ready[0].clock
	return best
}

// noteReady marks a parked processor runnable and lowers the current yield
// horizon so the running processor yields to it at its next checkpoint.
// Without this, a processor that wakes others (last barrier arriver, lock
// releaser) could keep running unboundedly in host order while the woken
// processors' virtual clocks fall behind.
func (k *Kernel) noteReady(p *Proc) {
	p.state = stReady
	k.heapPush(p)
	if p.clock < k.horizon {
		k.horizon = p.clock
	}
}

func (k *Kernel) applyDebt(p *Proc) {
	if d := k.pendingHandler[p.id]; d > 0 {
		p.clock += d
		k.run.Procs[p.id].Cycles[stats.Handler] += d
		k.pendingHandler[p.id] = 0
	}
}

func (k *Kernel) stateDump() string {
	var b strings.Builder
	for i := range k.procs {
		p := &k.procs[i]
		fmt.Fprintf(&b, "proc %d: state=%d clock=%d\n", p.id, p.state, p.clock)
	}
	fmt.Fprintf(&b, "barrier: %d arrived\n", k.bar.count)
	// Sorted lock order: map iteration would make the dump (and so the
	// DeadlockError text) differ between otherwise identical runs.
	ids := make([]int, 0, len(k.locks))
	for id := range k.locks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		l := k.locks[id]
		if l.held || len(l.queue) > 0 {
			fmt.Fprintf(&b, "lock %d: held=%v holder=%d waiters=%d\n", id, l.held, l.holder, len(l.queue))
		}
	}
	return b.String()
}

// lockFor returns (creating if needed) the state for lock id.
func (k *Kernel) lockFor(id int) *lockState {
	l, ok := k.locks[id]
	if !ok {
		l = &lockState{holder: -1, prevHolder: -1}
		k.locks[id] = l
	}
	return l
}
