// Package barnes reimplements the memory behaviour of Barnes-Hut N-body
// simulation as studied in the paper (§2.2.2, §4.2.4). Two time-steps are
// simulated (the paper's measurement uses 2 steps, "almost 66k remote locks
// in 2 steps"). The force-calculation phase is shared by all versions; the
// versions differ in how the shared octree is built — the phase the paper
// shows ballooning from ~2% sequentially to 43% of SVM execution time.
//
// Versions:
//
//   - splash:     the SPLASH (not SPLASH-2) original: one shared tree built
//     with a lock per modified cell; cells allocated from a globally
//     interleaved shared array, so concurrently-allocated cells share pages;
//   - pad:        per-processor pointer arrays and allocation chunks padded
//     to pages (P/A; "does not help performance much");
//   - splash2:    the SPLASH-2 restructuring (DS): cells and leaves are
//     allocated from per-processor local heaps (2.76 -> 2.94);
//   - updatetree: incremental Alg redesign — the tree is kept between steps
//     and only bodies that crossed cell boundaries move (5.56);
//   - partree:    each processor builds a lock-free local tree over its own
//     bodies, then the trees are merged — the merging is locked and highly
//     imbalanced (5.65);
//   - spatial:    the domain is split into equal subspaces; each processor
//     builds the subtree of its subspace without synchronization and the
//     disjoint subtrees are merged almost for free (10.5).
package barnes

import (
	"fmt"
	"math"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

const (
	steps      = 2
	cellBytes  = 256
	bodyBytes  = 128
	visitCost  = 12 // cycles per node opening test
	interCost  = 40 // cycles per body-body interaction
	buildCost  = 30 // cycles per insertion step
	dt         = 0.02
	rootHalf   = 2.0
	nLockSlots = 512 // SPLASH's finite lock array: cell locks alias
)

type app struct{}

func init() { core.Register(app{}) }

// Name implements core.App.
func (app) Name() string { return "barnes" }

// Versions implements core.App.
func (app) Versions() []core.Version {
	return []core.Version{
		{Name: "splash", Class: core.Orig, Desc: "shared tree, per-cell locks, interleaved cell array"},
		{Name: "pad", Class: core.PA, Desc: "pointer arrays and cell chunks padded to pages"},
		{Name: "splash2", Class: core.DS, Desc: "cells allocated from per-processor local heaps"},
		{Name: "updatetree", Class: core.Alg, Desc: "incremental tree update between steps"},
		{Name: "partree", Class: core.Alg, Desc: "lock-free local trees merged with locks"},
		{Name: "spatial", Class: core.Alg, Desc: "equal subspaces, disjoint local builds, trivial merge"},
	}
}

type version int

const (
	vSplash version = iota
	vPad
	vSplash2
	vUpdate
	vPartree
	vSpatial
)

type instance struct {
	ver    version
	n, np  int
	bodies []body
	t      tree

	bodyAdr uint64 // body records, blocked by owner
	bboxAdr uint64

	// Cell pools. localPools: per-processor heaps (DS versions);
	// otherwise one interleaved global array.
	globalPool uint64
	localPool  []uint64
	allocCnt   []int
	nodeAddr   []uint64 // simulated address per tree node

	slabRoot []int32 // spatial version: per-processor subtree roots
	locRoot  []int32 // partree: local roots

	fa forceArray // the current step's tree, flattened in phase 3

	verifyAcc [][3]float64 // accelerations after the first force phase
	posSnap   [][3]float64 // positions at that same point
}

// Build implements core.App.
func (app) Build(vname string, scale float64, as *mem.AddressSpace, np int) (core.Instance, error) {
	in := &instance{np: np}
	switch vname {
	case "splash":
		in.ver = vSplash
	case "pad":
		in.ver = vPad
	case "splash2":
		in.ver = vSplash2
	case "updatetree":
		in.ver = vUpdate
	case "partree":
		in.ver = vPartree
	case "spatial":
		in.ver = vSpatial
	default:
		return nil, fmt.Errorf("barnes: unknown version %q", vname)
	}
	n, err := apputil.Size("barnes", 2048, scale, 1, 16*np)
	if err != nil {
		return nil, err
	}
	in.n = n

	// Two clustered blobs: a non-uniform distribution, so equal subspaces
	// are imbalanced (the spatial version's documented cost).
	rng := apputil.NewRNG(31337)
	gauss := func() float64 {
		// Sum of uniforms, scaled: cheap approximate normal.
		return (rng.Float64() + rng.Float64() + rng.Float64() + rng.Float64() - 2) / 2
	}
	in.bodies = make([]body, n)
	for i := range in.bodies {
		c := [3]float64{-0.8, -0.2, 0}
		if i%3 == 0 {
			c = [3]float64{0.7, 0.3, 0.1}
		}
		b := &in.bodies[i]
		for d := 0; d < 3; d++ {
			b.pos[d] = clamp(c[d]+0.45*gauss(), -rootHalf+0.01, rootHalf-0.01)
			b.vel[d] = 0.05 * gauss()
		}
		b.mass = 1.0 / float64(n)
		b.leaf = -1
	}

	in.bodyAdr = as.AllocPages(n * bodyBytes)
	for q := 0; q < np; q++ {
		lo, hi := apputil.Split(n, np, q)
		as.SetHome(in.bodyAdr+uint64(lo)*bodyBytes, (hi-lo)*bodyBytes, q)
	}
	in.bboxAdr = as.Alloc(64)

	maxCells := 8*n/leafCap + 64*np
	switch in.ver {
	case vSplash:
		in.globalPool = as.AllocPages(maxCells * cellBytes)
		as.DistributeRoundRobin(in.globalPool, maxCells*cellBytes)
	case vPad:
		// Padding the per-processor allocation chunks to pages: the
		// global array is still shared, but each processor's chunk of
		// slots starts page-aligned. (Cells are padded, not relocated
		// — "a huge waste of memory".)
		in.globalPool = as.AllocPages(maxCells * cellBytes * 2)
		as.DistributeRoundRobin(in.globalPool, maxCells*cellBytes*2)
	default:
		in.localPool = make([]uint64, np)
		per := maxCells/np + 64
		for q := 0; q < np; q++ {
			in.localPool[q] = as.AllocPages(per * cellBytes)
			as.SetHome(in.localPool[q], per*cellBytes, q)
		}
	}
	in.allocCnt = make([]int, np)
	in.slabRoot = make([]int32, np)
	in.locRoot = make([]int32, np)
	return in, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// cellAddr returns the simulated address of tree node idx.
func (in *instance) cellAddr(idx int32) uint64 { return in.nodeAddr[idx] }

// assignAddr gives a freshly allocated node its simulated address according
// to the version's pool layout.
func (in *instance) assignAddr(idx int32, owner int) {
	for int(idx) >= len(in.nodeAddr) {
		in.nodeAddr = append(in.nodeAddr, 0)
	}
	cnt := in.allocCnt[owner]
	in.allocCnt[owner]++
	switch in.ver {
	case vSplash:
		// Interleaved: consecutive allocations from different
		// processors share pages.
		slot := cnt*in.np + owner
		in.nodeAddr[idx] = in.globalPool + uint64(slot)*cellBytes
	case vPad:
		// Page-aligned per-processor chunks of 16 slots.
		chunk, off := cnt/16, cnt%16
		slot := (chunk*in.np+owner)*16 + off
		in.nodeAddr[idx] = in.globalPool + uint64(slot)*cellBytes
	default:
		in.nodeAddr[idx] = in.localPool[owner] + uint64(cnt)*cellBytes
	}
}

func (in *instance) bAddr(bi int32) uint64 { return in.bodyAdr + uint64(bi)*bodyBytes }

func lockOf(idx int32) int { return 1000 + int(idx)%nLockSlots }

// recorder collects the nodes an insertion touches. Tree mutations run
// host-atomically (no simulation yields can interleave with them); the
// recorded reads, locked writes and allocations are charged to the simulated
// processor afterwards, so lock contention and page behaviour are preserved
// while the host data structure stays consistent.
type recorder struct {
	in     *instance
	visits []int32
	mods   []int32
	allocs []int32
}

func (r *recorder) reset() {
	r.visits = r.visits[:0]
	r.mods = r.mods[:0]
	r.allocs = r.allocs[:0]
}

func (r *recorder) visit(n int32) { r.visits = append(r.visits, n) }

func (r *recorder) modify(n int32) { r.mods = append(r.mods, n) }

func (r *recorder) allocated(n int32, by int) {
	r.in.assignAddr(n, by)
	r.allocs = append(r.allocs, n)
}

// charge replays the recorded costs: descent reads, per-cell locked writes,
// and new-cell initializations.
func (r *recorder) charge(p *sim.Proc, locks bool) {
	for _, n := range r.visits {
		p.ReadRange(r.in.cellAddr(n), 64)
		p.Compute(buildCost)
	}
	for _, n := range r.mods {
		if locks {
			p.Lock(lockOf(n))
		}
		p.WriteRange(r.in.cellAddr(n), 64)
		if locks {
			p.Unlock(lockOf(n))
		}
	}
	for _, n := range r.allocs {
		p.WriteRange(r.in.cellAddr(n), cellBytes)
	}
}

// Body implements core.Instance.
func (in *instance) Body(p *sim.Proc) {
	id := p.ID()
	lo, hi := apputil.Split(in.n, in.np, id)

	for step := 0; step < steps; step++ {
		// Phase 1: bounding box (a locked reduction over own bodies).
		for bi := lo; bi < hi; bi++ {
			p.ReadRange(in.bAddr(int32(bi)), 32)
		}
		p.Compute(uint64(4 * (hi - lo)))
		p.Lock(2000)
		p.Read(in.bboxAdr)
		p.Write(in.bboxAdr)
		p.Unlock(2000)
		p.Barrier()

		// Phase 2: tree build.
		t0 := p.Now()
		in.buildPhase(p, step, lo, hi)
		p.Barrier()
		p.RecordPhase("treebuild", p.Now()-t0)

		// Phase 3: centers of mass. Values are computed host-side once,
		// by proc 0 before any force work, into the force array; each
		// processor is charged for its own cells.
		if id == 0 {
			in.flattenTree()
		}
		for ci := range in.t.nodes {
			c := &in.t.nodes[ci]
			if c.used && int(c.owner) == id {
				p.ReadRange(in.cellAddr(int32(ci)), 64)
				p.WriteRange(in.cellAddr(int32(ci)), 64)
				p.Compute(80)
			}
		}
		p.Barrier()

		// Phase 4: force calculation on own bodies.
		t0 = p.Now()
		for bi := lo; bi < hi; bi++ {
			in.bodies[bi].acc = in.accel(p, int32(bi))
		}
		p.Barrier()
		p.RecordPhase("force", p.Now()-t0)

		if step == 0 && id == 0 {
			in.verifyAcc = make([][3]float64, in.n)
			in.posSnap = make([][3]float64, in.n)
			for i := range in.bodies {
				in.verifyAcc[i] = in.bodies[i].acc
				in.posSnap[i] = in.bodies[i].pos
			}
		}
		p.Barrier()

		// Phase 5: update positions.
		for bi := lo; bi < hi; bi++ {
			b := &in.bodies[bi]
			for d := 0; d < 3; d++ {
				b.vel[d] += b.acc[d] * dt
				b.pos[d] = clamp(b.pos[d]+b.vel[d]*dt, -rootHalf+0.01, rootHalf-0.01)
			}
			p.ReadRange(in.bAddr(int32(bi)), bodyBytes)
			p.WriteRange(in.bAddr(int32(bi)), 64)
		}
		p.Compute(uint64(12 * (hi - lo)))
		p.Barrier()
	}
}

// forAllRoots visits the root(s) of the current tree: one root normally, the
// per-slab subtree table for the spatial version.
func (in *instance) forAllRoots(f func(r int32)) {
	if in.ver == vSpatial {
		for _, r := range in.slabRoot {
			if r >= 0 {
				f(r)
			}
		}
		return
	}
	if in.t.root >= 0 {
		f(in.t.root)
	}
}

// flattenTree rebuilds the force array from the current tree, one root after
// another in forAllRoots order. It is a snapshot: nothing changes the tree,
// the body positions or the cell addresses between phase 3 and the end of
// phase 4. Both slices keep their storage across steps; the records grow
// only when a step's tree outgrows them (updatetree's step 1).
func (in *instance) flattenTree() {
	if cap(in.fa.recs) < len(in.t.nodes) {
		in.fa.recs = make([]cellRec, 0, len(in.t.nodes))
	}
	if in.fa.bodies == nil {
		in.fa.bodies = make([]leafBody, 0, in.n)
	}
	in.fa.recs, in.fa.bodies = in.fa.recs[:0], in.fa.bodies[:0]
	in.forAllRoots(func(r int32) {
		in.t.flatten(r, in.bodies, in.nodeAddr, &in.fa)
	})
}

// accel returns the Barnes-Hut acceleration on body bi, walking the force
// array in preorder. Each cell examined is charged one line read and the
// opening test; an empty cell or one far enough away is skipped past its
// subtree, and an opened cell continues at its first child, so cells are
// visited, charged and summed in the tree's child order.
func (in *instance) accel(p *sim.Proc, bi int32) (acc [3]float64) {
	recs, leaves := in.fa.recs, in.fa.bodies
	pos := in.bodies[bi].pos
	for i := 0; i < len(recs); {
		r := &recs[i]
		p.ReadRange(r.addr, 64)
		p.Compute(visitCost)
		next := int(r.skip)
		switch {
		case r.mass == 0:
		case r.lo < r.hi: // a leaf
			for j := r.lo; j < r.hi; j++ {
				ob := &leaves[j]
				if ob.idx == bi {
					continue
				}
				p.ReadRange(in.bAddr(ob.idx), 32)
				p.Compute(interCost)
				addForce(pos, ob.pos, ob.mass, &acc)
			}
		default:
			dx := r.com[0] - pos[0]
			dy := r.com[1] - pos[1]
			dz := r.com[2] - pos[2]
			dist := math.Sqrt(dx*dx + dy*dy + dz*dz)
			if r.size/(dist+1e-12) < theta {
				addPoint(dx, dy, dz, dist, r.mass, &acc)
			} else {
				next = i + 1
			}
		}
		i = next
	}
	return acc
}

// buildPhase dispatches to the version's tree construction.
func (in *instance) buildPhase(p *sim.Proc, step, lo, hi int) {
	id := p.ID()
	rebuild := step == 0 || in.ver != vUpdate

	if rebuild && in.ver != vSpatial && in.ver != vPartree {
		// Shared-tree build (splash, pad, splash2, updatetree step 0).
		if id == 0 {
			in.resetTree()
			in.t.root = in.t.alloc([3]float64{}, rootHalf, 0, false)
			in.assignAddr(in.t.root, 0)
		}
		p.Barrier()
		rec := &recorder{in: in}
		for bi := lo; bi < hi; bi++ {
			p.ReadRange(in.bAddr(int32(bi)), 32)
			rec.reset()
			in.t.insert(in.t.root, in.bodies, int32(bi), id, rec)
			rec.charge(p, true)
		}
		return
	}

	switch in.ver {
	case vUpdate:
		// Incremental: move only bodies that left their leaf.
		rec := &recorder{in: in}
		for bi := lo; bi < hi; bi++ {
			b := &in.bodies[bi]
			lf := b.leaf
			p.ReadRange(in.cellAddr(lf), 64)
			p.Compute(20)
			if contains(&in.t.nodes[lf], b.pos) {
				continue
			}
			// Remove under the leaf's lock, reinsert from the root.
			in.t.remove(lf, int32(bi))
			p.Lock(lockOf(lf))
			p.WriteRange(in.cellAddr(lf), 64)
			p.Unlock(lockOf(lf))
			p.ReadRange(in.bAddr(int32(bi)), 32)
			rec.reset()
			in.t.insert(in.t.root, in.bodies, int32(bi), id, rec)
			rec.charge(p, true)
		}

	case vPartree:
		if id == 0 {
			in.resetTree()
		}
		p.Barrier()
		// Lock-free local tree over own bodies (full bounds so the
		// octant decomposition lines up for merging).
		rec := &recorder{in: in}
		root := in.t.alloc([3]float64{}, rootHalf, id, false)
		in.assignAddr(root, id)
		p.WriteRange(in.cellAddr(root), cellBytes)
		in.locRoot[id] = root
		for bi := lo; bi < hi; bi++ {
			p.ReadRange(in.bAddr(int32(bi)), 32)
			rec.reset()
			in.t.insert(root, in.bodies, int32(bi), id, rec)
			rec.charge(p, false)
		}
		// Merge into the global tree. The first processor to merge
		// just redirects the root pointer; later processors find more
		// of the global tree already present and do successively more
		// per-cell-locked work (the paper's merge imbalance).
		p.Lock(1999)
		if in.t.root < 0 {
			in.t.root = root
			p.Write(in.cellAddr(root))
		} else {
			in.merge(p, in.t.root, root, id)
		}
		p.Unlock(1999)

	case vSpatial:
		if id == 0 {
			in.resetTree()
			for q := range in.slabRoot {
				in.slabRoot[q] = -1
			}
		}
		p.Barrier()
		// Gather the bodies of this processor's equal subspace (slab
		// of x) from the shared body array — they may be owned by
		// anyone for the force phase.
		slabW := 2 * rootHalf / float64(in.np)
		x0 := -rootHalf + float64(id)*slabW
		x1 := x0 + slabW
		ctr := [3]float64{x0 + slabW/2, 0, 0}
		root := in.t.alloc(ctr, rootHalf, id, false)
		// A slab is a box, not a cube; use the full half-height so
		// containment works, opening tests use the cube half.
		in.assignAddr(root, id)
		p.WriteRange(in.cellAddr(root), cellBytes)
		in.slabRoot[id] = root
		rec := &recorder{in: in}
		for bi := 0; bi < in.n; bi++ {
			p.ReadRange(in.bAddr(int32(bi)), 16)
			p.Compute(4)
			x := in.bodies[bi].pos[0]
			if x < x0 || x >= x1 {
				continue
			}
			rec.reset()
			in.t.insert(root, in.bodies, int32(bi), id, rec)
			rec.charge(p, false)
		}
		// Merge: publish the subtree root — one locked write.
		p.Lock(1998)
		p.Write(in.bboxAdr)
		p.Unlock(1998)
	}
}

func (in *instance) resetTree() {
	in.t.reset()
	in.nodeAddr = in.nodeAddr[:0]
	for q := range in.allocCnt {
		in.allocCnt[q] = 0
	}
}

// merge folds local subtree src into the global tree at dst (both internal
// nodes over the same bounds), charging locked insertions as it goes. The
// whole merge runs under the global merge lock, so host-side mutation is
// already serialized; costs are charged as the walk proceeds.
func (in *instance) merge(p *sim.Proc, dst, src int32, id int) {
	rec := &recorder{in: in}
	s := in.t.nodes[src]
	if s.leafN {
		for _, bi := range s.bodies {
			rec.reset()
			in.t.insert(dst, in.bodies, bi, id, rec)
			rec.charge(p, false)
		}
		return
	}
	for o := 0; o < 8; o++ {
		sc := s.child[o]
		if sc < 0 {
			continue
		}
		p.ReadRange(in.cellAddr(dst), 64)
		if in.t.nodes[dst].child[o] < 0 {
			// Link the whole local subtree in one locked write.
			in.t.nodes[dst].child[o] = sc
			p.WriteRange(in.cellAddr(dst), 64)
			continue
		}
		dc := in.t.nodes[dst].child[o]
		if in.t.nodes[dc].leafN {
			// Collision with an existing leaf: swap the link, then
			// reinsert the displaced bodies into the local subtree.
			old := append([]int32(nil), in.t.nodes[dc].bodies...)
			in.t.nodes[dst].child[o] = sc
			p.WriteRange(in.cellAddr(dst), 64)
			for _, bi := range old {
				rec.reset()
				in.t.insert(sc, in.bodies, bi, id, rec)
				rec.charge(p, false)
			}
			continue
		}
		in.merge(p, dc, sc, id)
	}
}

// Verify implements core.Instance: the Barnes-Hut accelerations of the first
// step must agree with the direct O(n^2) sum to within the accuracy of the
// theta criterion, and the tree must hold every body exactly once.
func (in *instance) Verify() error {
	if in.verifyAcc == nil {
		return fmt.Errorf("barnes: no accelerations recorded")
	}
	// Compare the step-0 Barnes-Hut accelerations against the direct
	// O(n^2) sum over the positions snapshotted at the same point. The
	// tree approximation with theta=0.7 should agree within a few
	// percent on average; a sampled subset keeps verification fast.
	stride := in.n / 512
	if stride < 1 {
		stride = 1
	}
	var sumRel float64
	var checked, outliers int
	for i := 0; i < in.n; i += stride {
		d := directForce(in.posSnap, in.bodies, i)
		a := in.verifyAcc[i]
		var dn, en float64
		for k := 0; k < 3; k++ {
			dn += d[k] * d[k]
			en += (d[k] - a[k]) * (d[k] - a[k])
		}
		dn = math.Sqrt(dn)
		rel := math.Sqrt(en) / (dn + 1e-9)
		sumRel += rel
		checked++
		if rel > 0.25 {
			outliers++
		}
	}
	if mean := sumRel / float64(checked); mean > 0.06 {
		return fmt.Errorf("barnes: mean force error %.3f vs direct sum, want < 0.06", mean)
	}
	if float64(outliers) > 0.03*float64(checked) {
		return fmt.Errorf("barnes: %d/%d force outliers (>25%% error)", outliers, checked)
	}
	// The force array lists the bodies of every leaf the tree reaches, and
	// its top-level records are the roots.
	seen := make([]bool, in.n)
	for _, lb := range in.fa.bodies {
		if seen[lb.idx] {
			return fmt.Errorf("barnes: body %d appears in two leaves", lb.idx)
		}
		seen[lb.idx] = true
	}
	if len(in.fa.bodies) != in.n {
		return fmt.Errorf("barnes: tree holds %d bodies, want %d", len(in.fa.bodies), in.n)
	}
	var mass float64
	for i := 0; i < len(in.fa.recs); i = int(in.fa.recs[i].skip) {
		mass += in.fa.recs[i].mass
	}
	if math.Abs(mass-1.0) > 1e-9 {
		return fmt.Errorf("barnes: root mass %g, want 1", mass)
	}
	return nil
}
