// Package kvstore is the first of the irregular modern workloads of ROADMAP
// item 3: a concurrent key-value service — zipf-keyed get/put operations over
// a shared hash table — restructured along the paper's §3 taxonomy. The
// access pattern is the opposite of the SPLASH codes: no phase structure, no
// spatial locality, every processor hashing into the same table, with a zipf
// head of hot keys providing true sharing and the table layout deciding how
// much false sharing rides along.
//
// Versions:
//
//   - orig:  chained buckets with entries allocated from a global pool in
//     insertion order, so a chain walk is a dependent pointer chase across
//     pages and entry writes false-share pool pages (and cache lines);
//   - pad:   P/A — entries padded and aligned to the hardware coherence
//     grain (64 B). Kills line-grain false sharing for the hardware
//     platforms, does nothing about page-grain sharing on SVM;
//   - open:  DS — the table reorganized into bucketized open addressing:
//     page-sized buckets of inline slots, so a probe sequence almost always
//     stays within a single page and the pointer chase is gone;
//   - shard: Alg — batched operation shipping: keys are range-partitioned
//     across processors, each round every processor buckets its operations
//     into per-owner outboxes (bulk writes to singly-written pages homed at
//     the reader), and after a barrier each owner applies the operations
//     destined to it against its own locally-homed open-addressed shard,
//     writing get replies into per-requester reply buffers.
//
// Puts are commutative (put(k, d) adds d to the key's value) and the
// host-side table mutation is a single Go statement between simulated
// events, so the final table contents — and therefore the fingerprint — are
// independent of the simulated interleaving, the platform, and the
// processor count. Gets perform the simulated probe traffic but their
// observed values are timing-dependent and are deliberately excluded from
// the fingerprint.
package kvstore

import (
	"fmt"
	"math"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

const (
	baseKeys = 4096
	baseOps  = 32768
	// keysPerBucket sets the chained-table bucket count (numKeys /
	// keysPerBucket buckets): average chains of four dependent entries.
	keysPerBucket = 4
	// zipfTheta skews the key popularity (0 = uniform; ~1 = web-like).
	zipfTheta = 0.9
	// putFraction of operations are puts, in 1/256ths (77 ≈ 30%).
	putFraction = 77
	// entryBytes is an unpadded entry: key, value, next link.
	entryBytes = 16
	// lineBytes is the hardware coherence grain the pad version aligns to.
	lineBytes = 64
	// shardRounds is how many distribute/apply/reply rounds the shard
	// version splits the operation log into.
	shardRounds = 4
)

type app struct{}

func init() { core.RegisterExtension(app{}) }

// Name implements core.App.
func (app) Name() string { return "kvstore" }

// Versions implements core.App.
func (app) Versions() []core.Version {
	return []core.Version{
		{Name: "orig", Class: core.Orig, Desc: "chained buckets, entries pooled in insertion order (pointer chase, pool false sharing)"},
		{Name: "pad", Class: core.PA, Desc: "entries padded+aligned to the 64 B hardware line"},
		{Name: "open", Class: core.DS, Desc: "bucketized open addressing: inline slots, probes confined to one page"},
		{Name: "shard", Class: core.Alg, Desc: "range-sharded table with batched per-owner operation shipping"},
	}
}

type version int

const (
	vOrig version = iota
	vPad
	vOpen
	vShard
)

type instance struct {
	ver      version
	np       int
	numKeys  int
	ops      []Op
	vals     []uint64 // live table contents, mutated during the run
	expected []uint64 // sequential replay of the op log, fixed at Build

	opsAdr uint64

	// Chained versions (orig, pad).
	chainNext []int32 // key -> next key in its chain, -1 at tail
	heads     []int32 // bucket -> first key, -1 when empty
	headAdr   uint64
	poolAdr   uint64
	entrySize uint64

	// Open-addressed versions (open, shard). path[k] is the exact probe
	// sequence for key k — slot indices relative to tableAdr, ending at
	// the key's resolved slot — fixed at Build so a simulated lookup
	// replays exactly the references a real probe would issue.
	path     [][]int32
	tableAdr uint64
	spp      int // slots per page

	// Shard version.
	outAdr, repAdr [][]uint64 // [src][dst] outbox / [owner][requester] reply bases
	cntAdr         uint64     // np*np counts matrix, one 8 B word each
}

// Op is one operation of the log: a get when Delta is zero, otherwise a
// put that adds Delta to the key's value.
type Op struct {
	Key   uint32
	Delta uint32
}

// Build implements core.App.
func (app) Build(versionName string, scale float64, as *mem.AddressSpace, np int) (core.Instance, error) {
	in := &instance{np: np, spp: int(as.PageSize()) / entryBytes}
	switch versionName {
	case "orig":
		in.ver, in.entrySize = vOrig, entryBytes
	case "pad":
		in.ver, in.entrySize = vPad, lineBytes
	case "open":
		in.ver = vOpen
	case "shard":
		in.ver = vShard
	default:
		return nil, fmt.Errorf("kvstore: unknown version %q", versionName)
	}

	var err error
	if in.numKeys, err = apputil.Size("kvstore", baseKeys, scale, 1, np*keysPerBucket); err != nil {
		return nil, err
	}
	nops, err := apputil.Size("kvstore", baseOps, scale, 1, np*shardRounds)
	if err != nil {
		return nil, err
	}
	in.ops = GenerateOps(in.numKeys, nops, 707)
	in.vals = make([]uint64, in.numKeys)
	rng := apputil.NewRNG(909)
	for k := range in.vals {
		in.vals[k] = rng.Uint64()
	}
	in.expected = append([]uint64(nil), in.vals...)
	ReplayOps(in.ops, in.expected)

	in.opsAdr = as.AllocPages(nops * 8)
	for id := 0; id < np; id++ {
		lo, hi := apputil.Split(nops, np, id)
		if hi > lo {
			as.SetHome(in.opsAdr+uint64(lo)*8, (hi-lo)*8, id)
		}
	}

	switch in.ver {
	case vOrig, vPad:
		in.buildChains(as)
	case vOpen:
		in.buildOpenTable(as, 0, in.numKeys, -1)
	case vShard:
		in.buildShard(as)
	}
	return in, nil
}

// hash spreads key ids (Fibonacci hashing) so bucket occupancy is uniform
// even though key ids are dense.
func hash(k uint32) uint32 { return k * 2654435761 }

// buildChains lays out the chained table: a packed head array plus a global
// entry pool in key order, so consecutive keys of one bucket sit ~numBuckets
// entries — typically pages — apart.
func (in *instance) buildChains(as *mem.AddressSpace) {
	numBuckets := in.numBuckets()
	in.heads = make([]int32, numBuckets)
	for b := range in.heads {
		in.heads[b] = -1
	}
	in.chainNext = make([]int32, in.numKeys)
	tail := make([]int32, numBuckets)
	for k := 0; k < in.numKeys; k++ {
		b := hash(uint32(k)) % uint32(numBuckets)
		in.chainNext[k] = -1
		if in.heads[b] < 0 {
			in.heads[b] = int32(k)
		} else {
			in.chainNext[tail[b]] = int32(k)
		}
		tail[b] = int32(k)
	}
	align := uint64(8)
	if in.ver == vPad {
		align = lineBytes
	}
	// Chain heads are written only at (untimed) build, so padding them buys
	// nothing; the pad version pads the entries, which take the put writes.
	in.headAdr = as.AllocPages(numBuckets * 4)
	in.poolAdr = as.AllocAlign(in.numKeys*int(in.entrySize), align)
}

func (in *instance) numBuckets() int {
	n := in.numKeys / keysPerBucket
	if n < 1 {
		n = 1
	}
	return n
}

// buildOpenTable inserts keys [lo, hi) into a fresh open-addressed region
// sized for ~50% load — page-sized buckets of inline 16 B slots, linear
// probing with wraparound — and records each key's probe path. home >= 0
// homes the whole region on that node (the shard version's per-owner
// sub-tables); home < 0 leaves the default round-robin placement.
func (in *instance) buildOpenTable(as *mem.AddressSpace, lo, hi, home int) {
	if in.path == nil {
		in.path = make([][]int32, in.numKeys)
	}
	numPages := (hi - lo + in.spp/2 - 1) / (in.spp / 2)
	if numPages < 1 {
		numPages = 1
	}
	total := numPages * in.spp
	base := as.AllocPages(total * entryBytes)
	if in.tableAdr == 0 {
		in.tableAdr = base
	}
	if home >= 0 {
		as.SetHome(base, total*entryBytes, home)
	}
	occupied := make([]bool, total)
	baseSlot := int32((base - in.tableAdr) / entryBytes)
	for k := lo; k < hi; k++ {
		h := hash(uint32(k - lo))
		s := int(h)%numPages*in.spp + int(h>>16)%in.spp
		path := []int32{baseSlot + int32(s)}
		for occupied[s] {
			s = (s + 1) % total
			path = append(path, baseSlot+int32(s))
		}
		occupied[s] = true
		in.path[k] = path
	}
}

// buildShard lays out the Alg version: per-owner open sub-tables homed at
// their owner, plus page-aligned per-(src,dst) outbox, count, and reply
// regions so every communication buffer has exactly one writer.
func (in *instance) buildShard(as *mem.AddressSpace) {
	for q := 0; q < in.np; q++ {
		lo, hi := apputil.Split(in.numKeys, in.np, q)
		in.buildOpenTable(as, lo, hi, q)
	}
	rc := in.roundCap()
	in.cntAdr = as.AllocPages(in.np * in.np * 8)
	in.outAdr = make([][]uint64, in.np)
	in.repAdr = make([][]uint64, in.np)
	for p := 0; p < in.np; p++ {
		in.outAdr[p] = make([]uint64, in.np)
		in.repAdr[p] = make([]uint64, in.np)
	}
	for p := 0; p < in.np; p++ {
		for q := 0; q < in.np; q++ {
			// Outbox p->q homed at the reader q; reply q->p homed at p.
			in.outAdr[p][q] = as.AllocPages(rc * 8)
			as.SetHome(in.outAdr[p][q], rc*8, q)
			in.repAdr[q][p] = as.AllocPages(rc * 8)
			as.SetHome(in.repAdr[q][p], rc*8, p)
		}
	}
}

// roundCap bounds how many operations one processor can distribute in one
// round — the outbox and reply buffer capacity.
func (in *instance) roundCap() int {
	perRound := (len(in.ops) + shardRounds - 1) / shardRounds
	return perRound/in.np + 1
}

// owner returns the processor whose key range contains k (shard version).
func (in *instance) owner(k uint32) int {
	for q := 0; q < in.np; q++ {
		lo, hi := apputil.Split(in.numKeys, in.np, q)
		if int(k) >= lo && int(k) < hi {
			return q
		}
	}
	return in.np - 1
}

// Body implements core.Instance.
func (in *instance) Body(p *sim.Proc) {
	switch in.ver {
	case vOrig, vPad:
		in.runChained(p)
	case vOpen:
		in.runOpen(p)
	case vShard:
		in.runShard(p)
	}
	p.Barrier()
}

// runChained processes this processor's operation block against the chained
// table: walk the chain (a dependent read per entry, scattered across the
// pool), then write the value in place under the bucket lock for puts.
func (in *instance) runChained(p *sim.Proc) {
	lo, hi := apputil.Split(len(in.ops), in.np, p.ID())
	p.ReadRange(in.opsAdr+uint64(lo)*8, (hi-lo)*8)
	numBuckets := uint32(in.numBuckets())
	for i := lo; i < hi; i++ {
		op := in.ops[i]
		b := hash(op.Key) % numBuckets
		put := op.Delta != 0
		if put {
			p.Lock(int(b))
		}
		p.Read(in.headAdr + uint64(b)*4)
		for k := in.heads[b]; k >= 0; k = in.chainNext[k] {
			p.ReadRange(in.poolAdr+uint64(k)*in.entrySize, entryBytes)
			p.Compute(4)
			if uint32(k) == op.Key {
				break
			}
		}
		if put {
			in.vals[op.Key] += uint64(op.Delta)
			p.Write(in.poolAdr + uint64(op.Key)*in.entrySize + 8)
			p.Unlock(int(b))
		}
		p.Compute(12)
	}
}

// probe simulates the open-addressing lookup of key k, reading every slot
// on the key's recorded probe path.
func (in *instance) probe(p *sim.Proc, k uint32) {
	for _, s := range in.path[k] {
		p.ReadRange(in.tableAdr+uint64(s)*entryBytes, entryBytes)
		p.Compute(4)
	}
}

// runOpen processes this processor's operation block against the
// open-addressed table; puts lock the page bucket the key probes in.
func (in *instance) runOpen(p *sim.Proc) {
	lo, hi := apputil.Split(len(in.ops), in.np, p.ID())
	p.ReadRange(in.opsAdr+uint64(lo)*8, (hi-lo)*8)
	for i := lo; i < hi; i++ {
		op := in.ops[i]
		put := op.Delta != 0
		lockID := int(in.path[op.Key][0]) / in.spp
		if put {
			p.Lock(lockID)
		}
		in.probe(p, op.Key)
		if put {
			in.vals[op.Key] += uint64(op.Delta)
			last := in.path[op.Key][len(in.path[op.Key])-1]
			p.Write(in.tableAdr + uint64(last)*entryBytes + 8)
			p.Unlock(lockID)
		}
		p.Compute(12)
	}
}

// runShard is the Alg version: in each of shardRounds rounds, distribute
// this processor's slice of the round's operations into per-owner outboxes
// (bulk writes), apply the operations shipped to this processor against its
// own locally-homed sub-table after a barrier, then read back get replies
// before the buffers are reused.
func (in *instance) runShard(p *sim.Proc) {
	id := p.ID()
	out := make([][]Op, in.np)  // this round's outboxes, by owner
	reply := make([]int, in.np) // replies produced for each requester
	for r := 0; r < shardRounds; r++ {
		rlo, rhi := apputil.Split(len(in.ops), shardRounds, r)
		lo, hi := apputil.Split(rhi-rlo, in.np, id)
		lo, hi = rlo+lo, rlo+hi

		// Distribute: bucket my slice by owner, one bulk write per outbox.
		for q := range out {
			out[q] = out[q][:0]
		}
		p.ReadRange(in.opsAdr+uint64(lo)*8, (hi-lo)*8)
		for i := lo; i < hi; i++ {
			op := in.ops[i]
			q := in.owner(op.Key)
			out[q] = append(out[q], op)
			p.Compute(3)
		}
		for q := 0; q < in.np; q++ {
			if len(out[q]) > 0 {
				p.WriteRange(in.outAdr[id][q], len(out[q])*8)
			}
			p.Write(in.cntAdr + uint64(id*in.np+q)*8)
		}
		p.Barrier()

		// Apply: drain every inbox destined to me against my local shard;
		// gets write an 8-byte reply into the requester's reply buffer.
		for q := 0; q < in.np; q++ {
			reply[q] = 0
		}
		for src := 0; src < in.np; src++ {
			p.Read(in.cntAdr + uint64(src*in.np+id)*8)
			slo, shi := apputil.Split(rhi-rlo, in.np, src)
			n := 0
			for i := rlo + slo; i < rlo+shi; i++ {
				if in.owner(in.ops[i].Key) != id {
					continue
				}
				n++
				op := in.ops[i]
				in.probe(p, op.Key)
				if op.Delta != 0 {
					in.vals[op.Key] += uint64(op.Delta)
					last := in.path[op.Key][len(in.path[op.Key])-1]
					p.Write(in.tableAdr + uint64(last)*entryBytes + 8)
				} else {
					p.Write(in.repAdr[id][src] + uint64(reply[src])*8)
					reply[src]++
				}
				p.Compute(8)
			}
			if n > 0 {
				p.ReadRange(in.outAdr[src][id], n*8)
			}
		}
		p.Barrier()

		// Collect replies to my gets before the buffers are reused.
		for q := 0; q < in.np; q++ {
			mine := 0
			for _, op := range out[q] {
				if op.Delta == 0 {
					mine++
				}
			}
			if mine > 0 {
				p.ReadRange(in.repAdr[q][id], mine*8)
				p.Compute(uint64(2 * mine))
			}
		}
		p.Barrier()
	}
}

// Verify implements core.Instance: the final table contents must equal a
// sequential replay of the operation log (puts are commutative, so every
// interleaving must land exactly here).
func (in *instance) Verify() error {
	for k := range in.vals {
		if in.vals[k] != in.expected[k] {
			return fmt.Errorf("kvstore: key %d = %d after the run, sequential replay says %d", k, in.vals[k], in.expected[k])
		}
	}
	return nil
}

// GenerateOps builds the deterministic zipf-keyed operation log shared by
// every version: numOps operations over numKeys keys, ~30% puts.
func GenerateOps(numKeys, numOps int, seed uint64) []Op {
	rng := apputil.NewRNG(seed)
	// Zipf CDF over popularity ranks, then a permutation so rank order is
	// decoupled from key id (and thus from every table layout).
	cdf := make([]float64, numKeys)
	total := 0.0
	for r := 0; r < numKeys; r++ {
		total += 1.0 / math.Pow(float64(r+1), zipfTheta)
		cdf[r] = total
	}
	perm := make([]uint32, numKeys)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := numKeys - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	ops := make([]Op, numOps)
	for i := range ops {
		x := rng.Float64() * total
		lo, hi := 0, numKeys-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		op := Op{Key: perm[lo]}
		if rng.Intn(256) < putFraction {
			op.Delta = uint32(rng.Uint64()&0xffff) + 1
		}
		ops[i] = op
	}
	return ops
}

// ReplayOps applies the operation log sequentially to vals — the serial
// reference that Verify and the property tests compare parallel runs
// against.
func ReplayOps(ops []Op, vals []uint64) {
	for _, op := range ops {
		if op.Delta != 0 {
			vals[op.Key] += uint64(op.Delta)
		}
	}
}
