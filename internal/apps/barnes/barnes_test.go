package barnes

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

var allVersions = []string{"splash", "pad", "splash2", "updatetree", "partree", "spatial"}

// newInstance builds version for np processors, with platform plat over its
// address space.
func newInstance(t *testing.T, version, plat string, np int, scale float64) (*instance, sim.Platform) {
	t.Helper()
	as := mem.NewAddressSpace(platform.PageSize, np)
	inst, err := app{}.Build(version, scale, as, np)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := platform.Make(plat, as, np)
	if err != nil {
		t.Fatal(err)
	}
	return inst.(*instance), pl
}

// execute runs one barnes cell through the harness with invariant checking on.
func execute(t *testing.T, version, plat string, np int, scale float64) *stats.Run {
	t.Helper()
	run, err := harness.Execute(harness.Spec{App: "barnes", Version: version, Platform: plat, NumProcs: np, Scale: scale, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestBarnesCorrectAllVersions(t *testing.T) {
	for _, v := range allVersions {
		t.Run(v, func(t *testing.T) { execute(t, v, "svm", 4, 0.25) })
	}
}

func TestBarnesAcrossPlatforms(t *testing.T) {
	for _, pl := range platform.Names {
		t.Run(pl, func(t *testing.T) { execute(t, "spatial", pl, 4, 0.25) })
	}
}

func TestBarnesUniprocessor(t *testing.T) {
	execute(t, "splash", "svm", 1, 0.25)
}

func TestBarnesLockCounts(t *testing.T) {
	// The shared-tree build locks on the order of a couple of lock
	// acquisitions per body (paper: ~66k remote locks for 16k bodies in
	// 2 steps); the spatial build must use almost none.
	shared := execute(t, "splash", "svm", 8, 0.5)
	spatial := execute(t, "spatial", "svm", 8, 0.5)
	ls, lo := spatial.AggregateCounters().LockAcquires, shared.AggregateCounters().LockAcquires
	if lo < uint64(1024) { // 1024 bodies at scale 0.5, ~>=1 lock/body over 2 steps
		t.Errorf("shared-tree build acquired only %d locks", lo)
	}
	if ls*4 >= lo {
		t.Errorf("spatial locks (%d) not well below shared-tree locks (%d)", ls, lo)
	}
}

func TestBarnesSpatialBeatsSplashOnSVM(t *testing.T) {
	shared := execute(t, "splash", "svm", 16, 0.5)
	spatial := execute(t, "spatial", "svm", 16, 0.5)
	if spatial.EndTime >= shared.EndTime {
		t.Errorf("spatial (%d) should beat splash (%d) on SVM", spatial.EndTime, shared.EndTime)
	}
}

func TestBarnesTreeBuildShareShrinks(t *testing.T) {
	// Paper: tree building takes 43%% of SVM time with the shared-tree
	// algorithm versus a small share with the spatial one.
	shared := execute(t, "splash", "svm", 16, 0.5)
	spatial := execute(t, "spatial", "svm", 16, 0.5)
	fs := float64(shared.PhaseTimes["treebuild"]) / float64(shared.EndTime*16)
	fo := float64(spatial.PhaseTimes["treebuild"]) / float64(spatial.EndTime*16)
	if fo >= fs {
		t.Errorf("spatial tree-build share %.2f >= shared %.2f", fo, fs)
	}
}

// refCells holds the recursive reference walk's masses and centers of mass,
// by node index.
type refCells struct {
	com  [][3]float64
	mass []float64
}

// computeCOM is the recursive center-of-mass pass the force array replaced:
// it fills in rc bottom-up from idx.
func (t *tree) computeCOM(idx int32, bodies []body, rc *refCells) (mass float64, com [3]float64) {
	c := &t.nodes[idx]
	if c.leafN {
		for _, bi := range c.bodies {
			b := &bodies[bi]
			mass += b.mass
			for d := 0; d < 3; d++ {
				com[d] += b.mass * b.pos[d]
			}
		}
	} else {
		for _, ch := range c.child {
			if ch < 0 {
				continue
			}
			m, cc := t.computeCOM(ch, bodies, rc)
			mass += m
			for d := 0; d < 3; d++ {
				com[d] += m * cc[d]
			}
		}
	}
	if mass > 0 {
		for d := 0; d < 3; d++ {
			com[d] /= mass
		}
	}
	rc.mass[idx] = mass
	rc.com[idx] = com
	return mass, com
}

// forceVisitor is called on every node examined during a force traversal.
type forceVisitor interface {
	examine(n int32)       // node whose COM/children were read
	interactBody(bi int32) // direct body-body interaction
}

// force is the recursive force walk the force array replaced: it
// accumulates the acceleration on body bi from the subtree at idx.
func (t *tree) force(idx int32, bodies []body, bi int32, acc *[3]float64, rc *refCells, v forceVisitor) {
	c := &t.nodes[idx]
	v.examine(idx)
	if rc.mass[idx] == 0 {
		return
	}
	b := &bodies[bi]
	if c.leafN {
		for _, ob := range c.bodies {
			if ob == bi {
				continue
			}
			v.interactBody(ob)
			addForce(b.pos, bodies[ob].pos, bodies[ob].mass, acc)
		}
		return
	}
	com := rc.com[idx]
	dx := com[0] - b.pos[0]
	dy := com[1] - b.pos[1]
	dz := com[2] - b.pos[2]
	dist := math.Sqrt(dx*dx + dy*dy + dz*dz)
	if (2*c.half)/(dist+1e-12) < theta {
		addPoint(dx, dy, dz, dist, rc.mass[idx], acc)
		return
	}
	for _, ch := range c.child {
		if ch >= 0 {
			t.force(ch, bodies, bi, acc, rc, v)
		}
	}
}

// forceCharger charges the reference walk's accesses as the force phase
// charged them before the force array.
type forceCharger struct {
	in *instance
	p  *sim.Proc
}

func (fc *forceCharger) examine(n int32) {
	fc.p.ReadRange(fc.in.cellAddr(n), 64)
	fc.p.Compute(visitCost)
}

func (fc *forceCharger) interactBody(bi int32) {
	fc.p.ReadRange(fc.in.bAddr(bi), 32)
	fc.p.Compute(interCost)
}

// barrierTap forwards to a platform and calls at with the running count of
// barrier releases, before each release.
type barrierTap struct {
	sim.Platform
	n  int
	at func(n int)
}

func (b *barrierTap) LineSize() int {
	return b.Platform.(interface{ LineSize() int }).LineSize()
}

func (b *barrierTap) BarrierRelease(arrivals []uint64, manager int) uint64 {
	b.n++
	b.at(b.n)
	return b.Platform.BarrierRelease(arrivals, manager)
}

// lineLog is a free platform that records every line access it is asked
// for, as addr<<1 | write.
type lineLog struct {
	sim.NopPlatform
	lines []uint64
}

func (l *lineLog) FastAccess(p int, now uint64, addr uint64, write bool) (uint64, bool) {
	e := addr << 1
	if write {
		e |= 1
	}
	l.lines = append(l.lines, e)
	return 0, true
}

// detach copies what the force walk and the reference walk read, so the copy
// stays the phase-4 state while the run goes on.
func detach(in *instance) *instance {
	c := &instance{ver: in.ver, n: in.n, np: in.np, bodyAdr: in.bodyAdr}
	c.bodies = append([]body(nil), in.bodies...)
	c.t.root = in.t.root
	c.t.nodes = append([]node(nil), in.t.nodes...)
	for i := range c.t.nodes {
		c.t.nodes[i].bodies = append([]int32(nil), c.t.nodes[i].bodies...)
	}
	c.nodeAddr = append([]uint64(nil), in.nodeAddr...)
	c.slabRoot = append([]int32(nil), in.slabRoot...)
	c.fa.recs = append([]cellRec(nil), in.fa.recs...)
	c.fa.bodies = append([]leafBody(nil), in.fa.bodies...)
	return c
}

// forceStates runs version at np processors and returns the state at the
// barrier that ends each step's force phase. Each step releases seven
// barriers — phase 1, the build's reset, phases 2, 3 and 4, the verify
// snapshot, phase 5 — but updatetree's incremental step has no reset, and
// the force phase ends at the step's fifth (fourth). A capture at any other
// barrier would hold accelerations that are not the captured tree's, which
// the caller's acceleration check rejects.
func forceStates(t *testing.T, version string, np int, scale float64) []*instance {
	t.Helper()
	in, pl := newInstance(t, version, "svm", np, scale)
	ends := map[int]int{5: 0, 12: 1}
	if in.ver == vUpdate {
		ends = map[int]int{5: 0, 11: 1}
	}
	states := make([]*instance, steps)
	tap := &barrierTap{Platform: pl, at: func(n int) {
		if s, ok := ends[n]; ok {
			states[s] = detach(in)
		}
	}}
	k := sim.New(tap, sim.Config{NumProcs: np, BarrierManager: sim.AutoBarrierManager})
	if _, err := k.RunErr("barnes/"+version, in.Body); err != nil {
		t.Fatal(err)
	}
	if err := in.Verify(); err != nil {
		t.Fatal(err)
	}
	return states
}

// chargedWalk runs walk for every body in a one-processor kernel over a
// recording platform and returns the accelerations, the line-access
// sequence and the compute cycles it charged.
func chargedWalk(n int, walk func(p *sim.Proc, bi int32) [3]float64) (acc [][3]float64, lines []uint64, compute uint64) {
	ll := &lineLog{}
	k := sim.New(ll, sim.Config{NumProcs: 1})
	acc = make([][3]float64, n)
	run := k.Run("walk", func(p *sim.Proc) {
		for bi := range acc {
			acc[bi] = walk(p, int32(bi))
		}
	})
	return acc, ll.lines, run.TotalCycles(stats.Compute)
}

// TestForceArrayMatchesRecursiveWalk checks the flat force array against the
// recursive walk it replaced, on the state at the end of each step's force
// phase: the records are the tree's preorder with masses and centers of mass
// folded in the same order, the accelerations are bit-identical, and the
// walk charges the same line sequence and compute cycles. Step 1 is checked
// too: nothing else observes its accelerations. The versions cover
// updatetree's emptied leaves, spatial's per-slab roots and partree's merged
// subtrees.
func TestForceArrayMatchesRecursiveWalk(t *testing.T) {
	sawEmpty, sawSlabs, sawMerged := false, false, false
	for _, v := range allVersions {
		for _, np := range []int{1, 3, 16} {
			for step, c := range forceStates(t, v, np, 0.25) {
				name := fmt.Sprintf("%s/P=%d/step%d", v, np, step)
				if c == nil {
					t.Fatalf("%s: no state captured at the end of the force phase", name)
				}
				rc := &refCells{com: make([][3]float64, len(c.t.nodes)), mass: make([]float64, len(c.t.nodes))}
				var pre []int32
				var end []int32
				var walk func(idx int32)
				walk = func(idx int32) {
					k := len(pre)
					pre = append(pre, idx)
					end = append(end, 0)
					if !c.t.nodes[idx].leafN {
						for _, ch := range c.t.nodes[idx].child {
							if ch >= 0 {
								walk(ch)
							}
						}
					}
					end[k] = int32(len(pre))
				}
				roots := 0
				c.forAllRoots(func(r int32) {
					c.t.computeCOM(r, c.bodies, rc)
					walk(r)
					roots++
				})
				checkPreorder(t, name, c, rc, pre, end)

				for _, r := range c.fa.recs {
					sawEmpty = sawEmpty || r.mass == 0
				}
				sawSlabs = sawSlabs || roots > 1
				sawMerged = sawMerged || len(pre) < len(c.t.nodes)

				arr, arrLines, arrCompute := chargedWalk(c.n, c.accel)
				ref, refLines, refCompute := chargedWalk(c.n, func(p *sim.Proc, bi int32) (acc [3]float64) {
					fc := &forceCharger{in: c, p: p}
					c.forAllRoots(func(r int32) { c.t.force(r, c.bodies, bi, &acc, rc, fc) })
					return acc
				})
				for bi := range ref {
					for d := 0; d < 3; d++ {
						want := math.Float64bits(ref[bi][d])
						if got := math.Float64bits(c.bodies[bi].acc[d]); got != want {
							t.Fatalf("%s: body %d acc[%d] = %x in the run, reference %x", name, bi, d, got, want)
						}
						if got := math.Float64bits(arr[bi][d]); got != want {
							t.Fatalf("%s: body %d acc[%d] = %x replayed, reference %x", name, bi, d, got, want)
						}
					}
				}
				if arrCompute != refCompute {
					t.Fatalf("%s: array walk charged %d compute cycles, reference %d", name, arrCompute, refCompute)
				}
				if len(arrLines) != len(refLines) {
					t.Fatalf("%s: array walk charged %d line accesses, reference %d", name, len(arrLines), len(refLines))
				}
				for i := range refLines {
					if arrLines[i] != refLines[i] {
						t.Fatalf("%s: line access %d is %#x, reference %#x", name, i, arrLines[i], refLines[i])
					}
				}
			}
		}
	}
	if !sawEmpty || !sawSlabs || !sawMerged {
		t.Errorf("coverage: empty cell %v, several roots %v, unreachable merged nodes %v; want all", sawEmpty, sawSlabs, sawMerged)
	}
}

// checkPreorder compares c's force array with the recursive preorder pre of
// its tree (end[k] one past pre[k]'s subtree) and the reference cells rc.
func checkPreorder(t *testing.T, name string, c *instance, rc *refCells, pre, end []int32) {
	t.Helper()
	if len(c.fa.recs) != len(pre) {
		t.Fatalf("%s: %d records, preorder has %d cells", name, len(c.fa.recs), len(pre))
	}
	var nb int32
	for k, idx := range pre {
		r, nd := c.fa.recs[k], &c.t.nodes[idx]
		if r.addr != c.nodeAddr[idx] || r.skip != end[k] || r.size != 2*nd.half {
			t.Fatalf("%s: record %d (addr %#x, skip %d, size %g) is not cell %d (addr %#x, skip %d, size %g)",
				name, k, r.addr, r.skip, r.size, idx, c.nodeAddr[idx], end[k], 2*nd.half)
		}
		if math.Float64bits(r.mass) != math.Float64bits(rc.mass[idx]) {
			t.Fatalf("%s: record %d mass %v, reference %v", name, k, r.mass, rc.mass[idx])
		}
		for d := 0; d < 3; d++ {
			if math.Float64bits(r.com[d]) != math.Float64bits(rc.com[idx][d]) {
				t.Fatalf("%s: record %d com[%d] %v, reference %v", name, k, d, r.com[d], rc.com[idx][d])
			}
		}
		if !nd.leafN {
			if r.lo != r.hi {
				t.Fatalf("%s: internal record %d has bodies [%d,%d)", name, k, r.lo, r.hi)
			}
			continue
		}
		if r.lo != nb || int(r.hi-r.lo) != len(nd.bodies) {
			t.Fatalf("%s: record %d body range [%d,%d), want %d bodies from %d", name, k, r.lo, r.hi, len(nd.bodies), nb)
		}
		for j, bi := range nd.bodies {
			lb := c.fa.bodies[int(r.lo)+j]
			if lb.idx != bi || lb.pos != c.bodies[bi].pos || lb.mass != c.bodies[bi].mass {
				t.Fatalf("%s: record %d body %d is %d, want %d", name, k, j, lb.idx, bi)
			}
		}
		nb += int32(len(nd.bodies))
	}
	if int(nb) != len(c.fa.bodies) {
		t.Fatalf("%s: %d leaf bodies, leaves hold %d", name, len(c.fa.bodies), nb)
	}
}

// TestVerifyRejectsBrokenTrees checks that Verify names a body held by two
// leaves and counts a body no leaf holds.
func TestVerifyRejectsBrokenTrees(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func(in *instance, a, b *node) (want string)
	}{
		{"duplicate", func(in *instance, a, b *node) string {
			a.bodies = append(a.bodies, b.bodies[0])
			return fmt.Sprintf("barnes: body %d appears in two leaves", b.bodies[0])
		}},
		{"missing", func(in *instance, a, b *node) string {
			b.bodies = b.bodies[1:]
			return fmt.Sprintf("barnes: tree holds %d bodies, want %d", in.n-1, in.n)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in, pl := newInstance(t, "splash", "svm", 2, 0.125)
			sim.New(pl, sim.Config{NumProcs: 2, BarrierManager: sim.AutoBarrierManager, Check: true}).Run("barnes", in.Body)
			if err := in.Verify(); err != nil {
				t.Fatal(err)
			}
			var leaves []*node
			for i := range in.t.nodes {
				if nd := &in.t.nodes[i]; nd.leafN && len(nd.bodies) > 0 {
					leaves = append(leaves, nd)
				}
			}
			if len(leaves) < 2 {
				t.Fatalf("tree has %d non-empty leaves", len(leaves))
			}
			want := tc.mangle(in, leaves[0], leaves[1])
			in.flattenTree()
			if err := in.Verify(); err == nil || err.Error() != want {
				t.Fatalf("Verify = %v, want %q", err, want)
			}
		})
	}
}
