package barnes

import "math"

// The real Barnes-Hut data structures and geometry. Tree nodes live in a
// single host-side slice; the simulated address of a node depends on which
// pool (global interleaved vs. per-processor heap) the running version
// allocated it from — that mapping lives in instance, not here.

const (
	leafCap = 8   // bodies per leaf, as in SPLASH Barnes
	theta   = 0.7 // opening criterion
	softEps = 0.05
)

type body struct {
	pos, vel, acc [3]float64
	mass          float64
	leaf          int32 // leaf node currently holding the body (Update-Tree)
}

type node struct {
	center [3]float64
	half   float64
	child  [8]int32 // children (internal nodes); -1 = empty
	bodies []int32  // leaf payload; nil for internal nodes
	owner  int32    // allocating processor
	leafN  bool
	used   bool
}

// tree is a growable arena of nodes with a root index.
type tree struct {
	nodes []node
	root  int32
}

func (t *tree) reset() {
	t.nodes = t.nodes[:0]
	t.root = -1
}

// alloc appends a fresh node and returns its index.
func (t *tree) alloc(center [3]float64, half float64, owner int, leaf bool) int32 {
	n := node{center: center, half: half, owner: int32(owner), leafN: leaf, used: true}
	for i := range n.child {
		n.child[i] = -1
	}
	t.nodes = append(t.nodes, n)
	return int32(len(t.nodes) - 1)
}

// octant returns which child octant of c contains p.
func octant(c *node, p [3]float64) int {
	o := 0
	for d := 0; d < 3; d++ {
		if p[d] >= c.center[d] {
			o |= 1 << d
		}
	}
	return o
}

// childBounds computes the center/half of octant o of cell c.
func childBounds(c *node, o int) ([3]float64, float64) {
	h := c.half / 2
	ctr := c.center
	for d := 0; d < 3; d++ {
		if o&(1<<d) != 0 {
			ctr[d] += h
		} else {
			ctr[d] -= h
		}
	}
	return ctr, h
}

// contains reports whether p lies within node c's cube.
func contains(c *node, p [3]float64) bool {
	for d := 0; d < 3; d++ {
		if p[d] < c.center[d]-c.half || p[d] >= c.center[d]+c.half {
			return false
		}
	}
	return true
}

// insertVisitor is called on every node touched during an insertion: descend
// steps (reads) and modifications (locked writes, allocations). It lets the
// instance charge the right simulated costs per version.
type insertVisitor interface {
	visit(n int32)             // node read while descending
	modify(n int32)            // node written under its lock
	allocated(n int32, by int) // new node created
}

// insert adds body b (index bi) into the subtree at idx, invoking v's hooks.
// It returns the leaf that finally holds the body.
func (t *tree) insert(idx int32, bodies []body, bi int32, owner int, v insertVisitor) int32 {
	for {
		c := &t.nodes[idx]
		if v != nil {
			v.visit(idx)
		}
		if c.leafN {
			if v != nil {
				v.modify(idx)
			}
			if len(c.bodies) < leafCap {
				c.bodies = insertSorted(c.bodies, bi)
				bodies[bi].leaf = idx
				return idx
			}
			// Split the leaf into an internal node and reinsert.
			old := append([]int32(nil), c.bodies...)
			c.bodies = nil
			c.leafN = false
			for _, ob := range old {
				t.placeInChild(idx, bodies, ob, owner, v)
			}
			// Fall through: continue inserting bi at this internal node.
			continue
		}
		o := octant(c, bodies[bi].pos)
		ch := c.child[o]
		if ch < 0 {
			if v != nil {
				v.modify(idx)
			}
			ctr, h := childBounds(c, o)
			nl := t.alloc(ctr, h, owner, true)
			if v != nil {
				v.allocated(nl, owner)
			}
			t.nodes[idx].child[o] = nl
			t.nodes[nl].bodies = append(t.nodes[nl].bodies, bi)
			bodies[bi].leaf = nl
			return nl
		}
		idx = ch
	}
}

// insertSorted adds bi to a leaf's body list keeping it sorted by index.
// Which bodies land in a leaf is canonical (pure geometry), but the order
// processors reach it depends on the simulated interleaving — and the
// floating-point folds in flatten and the force walk follow this list, so an
// interleaving-dependent order would make results differ across processor
// counts, versions and platforms that agree on the physics.
func insertSorted(bs []int32, bi int32) []int32 {
	i := len(bs)
	bs = append(bs, bi)
	for i > 0 && bs[i-1] > bi {
		bs[i] = bs[i-1]
		i--
	}
	bs[i] = bi
	return bs
}

// placeInChild pushes body ob one level down from internal node idx during a
// leaf split.
func (t *tree) placeInChild(idx int32, bodies []body, ob int32, owner int, v insertVisitor) {
	c := &t.nodes[idx]
	o := octant(c, bodies[ob].pos)
	if c.child[o] < 0 {
		ctr, h := childBounds(c, o)
		nl := t.alloc(ctr, h, owner, true)
		if v != nil {
			v.allocated(nl, owner)
		}
		t.nodes[idx].child[o] = nl
	}
	ch := t.nodes[idx].child[o]
	t.insert(ch, bodies, ob, owner, v)
}

// cellRec is one cell of the force array: exactly what the force walk reads.
// Records are in preorder, so a cell's subtree is recs[i:skip] and its first
// child, if it has one, is recs[i+1].
type cellRec struct {
	com    [3]float64
	size   float64 // 2*half, the cell width the opening test compares
	mass   float64
	addr   uint64 // the cell's simulated address
	lo, hi int32  // the leaf's bodies, forceArray.bodies[lo:hi]; empty for internal cells
	skip   int32  // index one past the cell's subtree
}

// leafBody is a body as the force walk reads it from a leaf.
type leafBody struct {
	pos  [3]float64
	mass float64
	idx  int32
}

// forceArray is the tree flattened for the force walk: cells in preorder and
// the leaves' bodies in the same order, contiguous.
type forceArray struct {
	recs   []cellRec
	bodies []leafBody
}

// flatten appends the subtree at idx to fa in preorder and fills in masses
// and centers of mass bottom-up, folding leaf bodies and children in their
// list order; it returns the subtree's mass and center of mass. addr maps
// node indices to simulated addresses.
func (t *tree) flatten(idx int32, bodies []body, addr []uint64, fa *forceArray) (mass float64, com [3]float64) {
	c := &t.nodes[idx]
	ri := len(fa.recs)
	fa.recs = append(fa.recs, cellRec{size: 2 * c.half, addr: addr[idx]})
	var lo, hi int32
	if c.leafN {
		lo = int32(len(fa.bodies))
		for _, bi := range c.bodies {
			b := &bodies[bi]
			fa.bodies = append(fa.bodies, leafBody{pos: b.pos, mass: b.mass, idx: bi})
			mass += b.mass
			for d := 0; d < 3; d++ {
				com[d] += b.mass * b.pos[d]
			}
		}
		hi = int32(len(fa.bodies))
	} else {
		for _, ch := range c.child {
			if ch < 0 {
				continue
			}
			m, cc := t.flatten(ch, bodies, addr, fa)
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
	r := &fa.recs[ri]
	r.com, r.mass, r.lo, r.hi, r.skip = com, mass, lo, hi, int32(len(fa.recs))
	return mass, com
}

func addForce(p, q [3]float64, m float64, acc *[3]float64) {
	dx, dy, dz := q[0]-p[0], q[1]-p[1], q[2]-p[2]
	dist := math.Sqrt(dx*dx + dy*dy + dz*dz)
	addPoint(dx, dy, dz, dist, m, acc)
}

func addPoint(dx, dy, dz, dist, m float64, acc *[3]float64) {
	d2 := dist*dist + softEps*softEps
	f := m / (d2 * math.Sqrt(d2))
	acc[0] += f * dx
	acc[1] += f * dy
	acc[2] += f * dz
}

// directForce computes the exact O(n^2) acceleration on body bi from
// positions pos and the bodies' masses — the verification reference for the
// Barnes-Hut approximation.
func directForce(pos [][3]float64, bodies []body, bi int) [3]float64 {
	var acc [3]float64
	for j := range pos {
		if j == bi {
			continue
		}
		addForce(pos[bi], pos[j], bodies[j].mass, &acc)
	}
	return acc
}

// remove deletes body bi from leaf lf (Update-Tree), preserving the sorted
// order insertSorted maintains (a swap-with-last would reintroduce an
// interleaving-dependent order).
func (t *tree) remove(lf int32, bi int32) {
	bs := t.nodes[lf].bodies
	for i, b := range bs {
		if b == bi {
			copy(bs[i:], bs[i+1:])
			t.nodes[lf].bodies = bs[:len(bs)-1]
			return
		}
	}
}
