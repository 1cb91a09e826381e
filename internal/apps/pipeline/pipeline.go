// Package pipeline is the third irregular modern workload of ROADMAP item 3:
// a bounded-queue producer-consumer pipeline — four stages of unequal cost
// connected by queues, processors assigned to stages — restructured along
// the paper's §3 taxonomy. Unlike the barrier-phased SPLASH codes, the
// sharing here is continuous fine-grained hand-off: queue headers are
// write-hot from both sides, and how the queues are laid out and batched
// decides the protocol traffic.
//
// Versions:
//
//   - orig:  one lock-protected shared queue per stage boundary, 16 B
//     entries packed back-to-back and all queue headers packed on a single
//     page (header false sharing between every boundary);
//   - pad:   P/A — entries padded+aligned to the 64 B hardware line and one
//     page per queue header;
//   - split: DS — the shared queues replaced by per-(producer,consumer)
//     single-producer single-consumer rings: no locks, the head and tail
//     words on separate pages (each written by exactly one side), entries
//     homed at the consumer, items routed by index round-robin;
//   - batch: Alg — the split structure with items handed off in batches of
//     batchK, so header updates and page transfers amortize across a whole
//     batch instead of being paid per item.
//
// Every item passes through every stage exactly once (queue pops are
// unique), and the per-stage transform depends only on the stage and the
// item value — never on which processor ran it or when — so the final
// output array is identical across platforms, processor counts, and
// versions, and is what the fingerprint hashes. Which processor handles an
// item, by contrast, is timing-dependent, so per-processor counts are kept
// out of both Verify and the fingerprint.
//
// Processor-to-stage assignment handles any processor count: with np >= 4
// processors, processor p serves stage p mod 4; with fewer, processor p
// multiplexes every stage s with s mod np == p, polling its stages round
// robin (a poll that makes no progress still burns simulated cycles, so
// virtual time always advances and the schedule cannot livelock).
package pipeline

import (
	"fmt"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

const (
	baseItems = 8192
	numStages = 4
	// queueCap is the shared-queue capacity (orig/pad), spscCap the
	// per-pair ring capacity (split/batch), in items.
	queueCap = 128
	spscCap  = 64
	// batchK is the Alg version's hand-off batch size.
	batchK = 16
	// burst bounds how many items one scheduling step processes per stage.
	burst      = 8
	entryBytes = 16
	lineBytes  = 64
)

// stageCost is the per-item compute cost of each stage — deliberately
// unequal so the pipeline has a bottleneck stage and real queueing.
var stageCost = [numStages]uint64{24, 40, 16, 32}

// stageSalt parameterizes the per-stage transform.
var stageSalt = [numStages]uint64{0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93}

type app struct{}

func init() { core.RegisterExtension(app{}) }

// Name implements core.App.
func (app) Name() string { return "pipeline" }

// Versions implements core.App.
func (app) Versions() []core.Version {
	return []core.Version{
		{Name: "orig", Class: core.Orig, Desc: "shared locked queue per boundary, packed entries and headers"},
		{Name: "pad", Class: core.PA, Desc: "entries padded to the 64 B line, one page per queue header"},
		{Name: "split", Class: core.DS, Desc: "per-(producer,consumer) lock-free SPSC rings, consumer-homed"},
		{Name: "batch", Class: core.Alg, Desc: "SPSC rings with batched hand-off (amortized headers and pages)"},
	}
}

type version int

const (
	vOrig version = iota
	vPad
	vSplit
	vBatch
)

// transform is the deterministic per-(stage,value) item computation.
func transform(s int, v uint64) uint64 {
	for r := 0; r < 3; r++ {
		v = v*6364136223846793005 + stageSalt[s]
	}
	return v
}

type instance struct {
	ver      version
	np       int
	numItems int
	vals     []uint64 // live item values, transformed in place stage by stage
	expected []uint64 // all four transforms applied serially, fixed at Build

	inAdr, outAdr uint64

	// processed[s] counts items transformed at stage s (conservation
	// invariant: every entry must equal numItems after the run).
	processed [numStages]int
	// popped[b] counts items popped across boundary b; the producer-side
	// end-of-input signal for stage b+1.
	popped [numStages - 1]int

	shared [numStages - 1]*sharedQueue   // orig, pad
	spsc   [numStages - 1][][]*spscQueue // split, batch: [boundary][prodIdx][consIdx]
}

// sharedQueue is one lock-protected bounded MPMC queue (orig/pad).
type sharedQueue struct {
	lockID     int
	headerAdr  uint64
	entryAdr   uint64
	entrySize  uint64
	buf        []int
	head, tail int
}

func (q *sharedQueue) tryPush(p *sim.Proc, item int) bool {
	p.Lock(q.lockID)
	p.Read(q.headerAdr)
	if q.tail-q.head >= queueCap {
		p.Unlock(q.lockID)
		return false
	}
	q.buf[q.tail%queueCap] = item
	p.WriteRange(q.entryAdr+uint64(q.tail%queueCap)*q.entrySize, entryBytes)
	q.tail++
	p.Write(q.headerAdr)
	p.Unlock(q.lockID)
	return true
}

func (q *sharedQueue) tryPop(p *sim.Proc) (int, bool) {
	p.Lock(q.lockID)
	p.Read(q.headerAdr)
	if q.tail == q.head {
		p.Unlock(q.lockID)
		return 0, false
	}
	item := q.buf[q.head%queueCap]
	p.ReadRange(q.entryAdr+uint64(q.head%queueCap)*q.entrySize, entryBytes)
	q.head++
	p.Write(q.headerAdr + 8)
	p.Unlock(q.lockID)
	return item, true
}

// spscQueue is a lock-free single-producer single-consumer ring
// (split/batch): the producer writes only tailAdr and the entries, the
// consumer writes only headAdr, so neither word is ever write-shared.
type spscQueue struct {
	headAdr    uint64 // consumer-written cursor, homed at the producer
	tailAdr    uint64 // producer-written cursor, leading the entry region
	entryAdr   uint64
	buf        []int
	head, tail int
}

func (q *spscQueue) tryPush(p *sim.Proc, item int) bool {
	p.Read(q.headAdr)
	if q.tail-q.head >= spscCap {
		return false
	}
	q.buf[q.tail%spscCap] = item
	p.WriteRange(q.entryAdr+uint64(q.tail%spscCap)*entryBytes, entryBytes)
	q.tail++
	p.Write(q.tailAdr)
	return true
}

func (q *spscQueue) tryPop(p *sim.Proc) (int, bool) {
	p.Read(q.tailAdr)
	if q.tail == q.head {
		return 0, false
	}
	item := q.buf[q.head%spscCap]
	p.ReadRange(q.entryAdr+uint64(q.head%spscCap)*entryBytes, entryBytes)
	q.head++
	p.Write(q.headAdr)
	return item, true
}

// tryPushBatch pushes all items or none, with one header update and one
// (possibly wrapped) bulk entry write.
func (q *spscQueue) tryPushBatch(p *sim.Proc, items []int) bool {
	p.Read(q.headAdr)
	if spscCap-(q.tail-q.head) < len(items) {
		return false
	}
	for _, item := range items {
		q.buf[q.tail%spscCap] = item
		q.tail++
	}
	q.rangeOp(p, q.tail-len(items), len(items), true)
	p.Write(q.tailAdr)
	return true
}

// popBatch drains up to max items with one header update.
func (q *spscQueue) popBatch(p *sim.Proc, max int, into []int) []int {
	p.Read(q.tailAdr)
	n := q.tail - q.head
	if n == 0 {
		return into
	}
	if n > max {
		n = max
	}
	q.rangeOp(p, q.head, n, false)
	for i := 0; i < n; i++ {
		into = append(into, q.buf[q.head%spscCap])
		q.head++
	}
	p.Write(q.headAdr)
	return into
}

// rangeOp touches n ring entries starting at cursor, splitting the access
// at the ring's wrap point.
func (q *spscQueue) rangeOp(p *sim.Proc, cursor, n int, write bool) {
	first := cursor % spscCap
	k := n
	if first+k > spscCap {
		k = spscCap - first
	}
	op := p.ReadRange
	if write {
		op = p.WriteRange
	}
	op(q.entryAdr+uint64(first)*entryBytes, k*entryBytes)
	if k < n {
		op(q.entryAdr, (n-k)*entryBytes)
	}
}

// Build implements core.App.
func (app) Build(versionName string, scale float64, as *mem.AddressSpace, np int) (core.Instance, error) {
	in := &instance{np: np}
	switch versionName {
	case "orig":
		in.ver = vOrig
	case "pad":
		in.ver = vPad
	case "split":
		in.ver = vSplit
	case "batch":
		in.ver = vBatch
	default:
		return nil, fmt.Errorf("pipeline: unknown version %q", versionName)
	}
	var err error
	if in.numItems, err = apputil.Size("pipeline", baseItems, scale, 1, np*4*batchK); err != nil {
		return nil, err
	}
	in.vals = make([]uint64, in.numItems)
	rng := apputil.NewRNG(1311)
	for i := range in.vals {
		in.vals[i] = rng.Uint64()
	}
	in.expected = make([]uint64, in.numItems)
	for i, v := range in.vals {
		for s := 0; s < numStages; s++ {
			v = transform(s, v)
		}
		in.expected[i] = v
	}

	in.inAdr = as.AllocPages(in.numItems * 8)
	in.outAdr = as.AllocPages(in.numItems * 8)

	switch in.ver {
	case vOrig, vPad:
		entrySize := uint64(entryBytes)
		if in.ver == vPad {
			entrySize = lineBytes
		}
		var headerBase uint64
		if in.ver == vOrig {
			headerBase = as.Alloc(32 * (numStages - 1))
		}
		for b := 0; b < numStages-1; b++ {
			q := &sharedQueue{lockID: b, entrySize: entrySize, buf: make([]int, queueCap)}
			if in.ver == vOrig {
				q.headerAdr = headerBase + uint64(b)*32
				q.entryAdr = as.Alloc(queueCap * entryBytes)
			} else {
				q.headerAdr = as.AllocPages(32)
				q.entryAdr = as.AllocAlign(queueCap*int(entrySize), lineBytes)
			}
			in.shared[b] = q
		}
	case vSplit, vBatch:
		for b := 0; b < numStages-1; b++ {
			prods := stageProcs(np, b)
			cons := stageProcs(np, b+1)
			in.spsc[b] = make([][]*spscQueue, len(prods))
			for pi, pp := range prods {
				in.spsc[b][pi] = make([]*spscQueue, len(cons))
				for ci, cp := range cons {
					q := &spscQueue{buf: make([]int, spscCap)}
					q.headAdr = as.AllocPages(8)
					as.SetHome(q.headAdr, 8, pp%np)
					q.tailAdr = as.AllocPages(8 + spscCap*entryBytes)
					q.entryAdr = q.tailAdr + 8
					as.SetHome(q.tailAdr, 8+spscCap*entryBytes, cp%np)
					in.spsc[b][pi][ci] = q
				}
			}
		}
	}
	return in, nil
}

// stageProcs lists the processors serving stage s, in ascending order.
func stageProcs(np, s int) []int {
	var procs []int
	if np >= numStages {
		for p := s % numStages; p < np; p += numStages {
			procs = append(procs, p)
		}
	} else {
		procs = append(procs, s%np)
	}
	return procs
}

// stagesOf lists the stages processor p serves, in ascending order.
func stagesOf(np, p int) []int {
	var ss []int
	for s := 0; s < numStages; s++ {
		for _, q := range stageProcs(np, s) {
			if q == p {
				ss = append(ss, s)
			}
		}
	}
	return ss
}

// procStage is one processor's scheduling state for one stage it serves.
type procStage struct {
	stage    int
	next, hi int          // stage 0: this processor's static item slice
	pending  int          // transformed item awaiting a successful push, -1 = none
	inQs     []*spscQueue // split/batch: my inboxes, by producer
	outQs    []*spscQueue // split/batch: my outboxes, by consumer
	rr       int          // inbox polling rotation
	batches  [][]int      // batch: per-consumer pending batches
	popBuf   []int
}

// Body implements core.Instance.
func (in *instance) Body(p *sim.Proc) {
	id := p.ID()
	var states []*procStage
	for _, s := range stagesOf(in.np, id) {
		ps := &procStage{stage: s, pending: -1}
		if s == 0 {
			prods := stageProcs(in.np, 0)
			idx := indexOf(prods, id)
			ps.next, ps.hi = apputil.Split(in.numItems, len(prods), idx)
		}
		if in.ver == vSplit || in.ver == vBatch {
			if s > 0 {
				ci := indexOf(stageProcs(in.np, s), id)
				for pi := range in.spsc[s-1] {
					ps.inQs = append(ps.inQs, in.spsc[s-1][pi][ci])
				}
			}
			if s < numStages-1 {
				pi := indexOf(stageProcs(in.np, s), id)
				ps.outQs = in.spsc[s][pi]
				ps.batches = make([][]int, len(ps.outQs))
			}
		}
		states = append(states, ps)
	}
	for {
		progress, done := false, true
		for _, ps := range states {
			var pr, dn bool
			if in.ver == vBatch {
				pr, dn = in.stepBatch(p, ps)
			} else {
				pr, dn = in.stepItems(p, ps)
			}
			progress = progress || pr
			done = done && dn
		}
		if done {
			break
		}
		if !progress {
			// Fruitless poll: burn cycles so virtual time advances and
			// the producers/consumers we wait on get scheduled.
			p.Compute(6)
		}
	}
	p.Barrier()
}

func indexOf(procs []int, p int) int {
	for i, q := range procs {
		if q == p {
			return i
		}
	}
	panic("pipeline: processor not in stage list")
}

// inputDone reports whether stage ps can never receive another item.
func (in *instance) inputDone(ps *procStage) bool {
	if ps.stage == 0 {
		return ps.next >= ps.hi
	}
	return in.popped[ps.stage-1] == in.numItems
}

// nextInput acquires one item for the stage: the static slice for stage 0,
// a queue pop otherwise.
func (in *instance) nextInput(p *sim.Proc, ps *procStage) (int, bool) {
	if ps.stage == 0 {
		if ps.next >= ps.hi {
			return 0, false
		}
		item := ps.next
		ps.next++
		p.ReadRange(in.inAdr+uint64(item)*8, 8)
		return item, true
	}
	if in.ver == vOrig || in.ver == vPad {
		item, ok := in.shared[ps.stage-1].tryPop(p)
		if ok {
			in.popped[ps.stage-1]++
		}
		return item, ok
	}
	for i := 0; i < len(ps.inQs); i++ {
		q := ps.inQs[(ps.rr+i)%len(ps.inQs)]
		if item, ok := q.tryPop(p); ok {
			ps.rr = (ps.rr + i + 1) % len(ps.inQs)
			in.popped[ps.stage-1]++
			return item, true
		}
	}
	return 0, false
}

// emit hands a transformed item downstream (or retires it at the last
// stage); false means the output queue was full and the item must wait.
func (in *instance) emit(p *sim.Proc, ps *procStage, item int) bool {
	s := ps.stage
	if s == numStages-1 {
		p.Write(in.outAdr + uint64(item)*8)
		return true
	}
	if in.ver == vOrig || in.ver == vPad {
		return in.shared[s].tryPush(p, item)
	}
	return ps.outQs[item%len(ps.outQs)].tryPush(p, item)
}

// runStage transforms one item at this stage (host-side single statement,
// so the value update is atomic with respect to simulated yields).
func (in *instance) runStage(p *sim.Proc, s, item int) {
	in.vals[item] = transform(s, in.vals[item])
	in.processed[s]++
	p.Compute(stageCost[s])
}

// stepItems is one scheduling step of the per-item versions (orig, pad,
// split): flush the pending item, then pop-transform-push up to burst
// items.
func (in *instance) stepItems(p *sim.Proc, ps *procStage) (progress, done bool) {
	if ps.pending >= 0 {
		if !in.emit(p, ps, ps.pending) {
			return false, false
		}
		ps.pending = -1
		progress = true
	}
	for n := 0; n < burst; n++ {
		item, ok := in.nextInput(p, ps)
		if !ok {
			break
		}
		progress = true
		in.runStage(p, ps.stage, item)
		if !in.emit(p, ps, item) {
			ps.pending = item
			return progress, false
		}
	}
	return progress, ps.pending < 0 && in.inputDone(ps)
}

// flushBatches pushes full batches downstream in batchK-sized chunks —
// and, once the stage's input is exhausted, partial ones too. It reports
// progress and whether any batch remains stuck behind a full ring.
func (in *instance) flushBatches(p *sim.Proc, ps *procStage) (progress, blocked bool) {
	flushAll := in.inputDone(ps)
	for ci := range ps.batches {
		for {
			b := ps.batches[ci]
			if len(b) == 0 || (len(b) < batchK && !flushAll) {
				break
			}
			n := len(b)
			if n > batchK {
				n = batchK
			}
			if !ps.outQs[ci].tryPushBatch(p, b[:n]) {
				blocked = true
				break
			}
			ps.batches[ci] = b[n:]
			progress = true
		}
	}
	return progress, blocked
}

// batchesFull reports whether any pending batch has reached batchK — the
// backpressure signal to stop acquiring input, which bounds every batch at
// under 2*batchK items so a batchK-sized chunk always fits the ring.
func (ps *procStage) batchesFull() bool {
	for _, b := range ps.batches {
		if len(b) >= batchK {
			return true
		}
	}
	return false
}

// stepBatch is one scheduling step of the batch version: flush what can be
// flushed, then (unless backpressured) drain one inbox in bulk, transform,
// and accumulate per-consumer output batches.
func (in *instance) stepBatch(p *sim.Proc, ps *procStage) (progress, done bool) {
	s := ps.stage
	last := s == numStages-1

	if !last {
		pr, _ := in.flushBatches(p, ps)
		progress = progress || pr
	}

	// Acquire a batch of input, unless output backpressure would grow a
	// pending batch past what one ring push can ever take.
	ps.popBuf = ps.popBuf[:0]
	if last || !ps.batchesFull() {
		if s == 0 {
			n := ps.hi - ps.next
			if n > batchK {
				n = batchK
			}
			if n > 0 {
				p.ReadRange(in.inAdr+uint64(ps.next)*8, n*8)
				for i := 0; i < n; i++ {
					ps.popBuf = append(ps.popBuf, ps.next)
					ps.next++
				}
			}
		} else {
			for i := 0; i < len(ps.inQs) && len(ps.popBuf) == 0; i++ {
				q := ps.inQs[(ps.rr+i)%len(ps.inQs)]
				ps.popBuf = q.popBatch(p, batchK, ps.popBuf)
				if len(ps.popBuf) > 0 {
					ps.rr = (ps.rr + i + 1) % len(ps.inQs)
				}
			}
			in.popped[s-1] += len(ps.popBuf)
		}
	}
	for _, item := range ps.popBuf {
		progress = true
		in.runStage(p, s, item)
		if last {
			p.Write(in.outAdr + uint64(item)*8)
		} else {
			ci := item % len(ps.outQs)
			ps.batches[ci] = append(ps.batches[ci], item)
		}
	}

	if !last && len(ps.popBuf) > 0 {
		pr, _ := in.flushBatches(p, ps)
		progress = progress || pr
	}

	done = in.inputDone(ps)
	for _, b := range ps.batches {
		if len(b) > 0 {
			done = false
		}
	}
	return progress, done
}

// Verify implements core.Instance: conservation (every stage transformed
// every item exactly once, every queue drained) and the final values
// against the serial reference.
func (in *instance) Verify() error {
	for s := 0; s < numStages; s++ {
		if in.processed[s] != in.numItems {
			return fmt.Errorf("pipeline: stage %d transformed %d items, want %d", s, in.processed[s], in.numItems)
		}
	}
	for b := 0; b < numStages-1; b++ {
		if q := in.shared[b]; q != nil && q.head != q.tail {
			return fmt.Errorf("pipeline: boundary %d queue not drained (%d left)", b, q.tail-q.head)
		}
		for _, row := range in.spsc[b] {
			for _, q := range row {
				if q.head != q.tail {
					return fmt.Errorf("pipeline: boundary %d ring not drained (%d left)", b, q.tail-q.head)
				}
			}
		}
	}
	for i := range in.vals {
		if in.vals[i] != in.expected[i] {
			return fmt.Errorf("pipeline: item %d = %#x after the run, serial reference says %#x", i, in.vals[i], in.expected[i])
		}
	}
	return nil
}
