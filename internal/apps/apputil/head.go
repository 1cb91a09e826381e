package apputil

// Head is the CT-head stand-in that Volrend and Shear-Warp render: density
// shells inside a bounding sphere, empty outside, over an n×n grid of
// columns of nz voxels. Voxel (x, y, z) is the one the renderers address at
// (y*n+x)*nz+z in their simulated ray-major volume.
//
// Head never materializes that dense volume. A voxel depends on its column
// only through key = dx²+dy², and the key is exact in float64: dx and dy are
// multiples of ½ and dz is an integer, so every product and sum in the voxel
// expression is exact. Columns with equal keys therefore hold identical
// voxels, and the nonzero voxels of a column form one contiguous span
// [lo, hi) around the centre slice (the sphere test is d2 ≤ r², with d2 =
// key + dz² and dz² convex in z; every shell density is nonzero). Head
// stores each distinct occupied column once, as lo plus the span's voxel
// bytes, and a folded per-column index into them. The key depends on dx and
// dy only through |dx| and |dy|, in either order, so the index covers one
// triangle of one quadrant: fold(x) = |2x-n|/2, ordered a ≤ b.
type Head struct {
	n, nz int
	idx   []int32 // folded column (a, b) at tri(a, b) -> distinct column; -1 when empty
	lo    []int32 // distinct column -> first nonzero z
	off   []int32 // distinct column i's span is vox[off[i]:off[i+1]]
	vox   []uint8
}

// NewHead builds the head for an n×n×nz volume. A first pass finds the
// distinct columns and their spans, so the voxel bytes are allocated once,
// at their final size; a second pass fills them.
func NewHead(n, nz int) *Head {
	m := n / 2 // column (m-a, m-b) folds to (a, b)
	h := &Head{n: n, nz: nz, idx: make([]int32, tri(0, m+1)), off: []int32{0}}
	cx, cy := float64(n)/2, float64(n)/2
	r := 0.45 * float64(n)
	distinct := map[uint32]int32{} // 4·key, an exact integer -> distinct column
	for b := 0; b <= m; b++ {
		for a := 0; a <= b; a++ {
			dx, dy := float64(m-a)-cx, float64(m-b)-cy
			key := dx*dx + dy*dy
			if key > r*r {
				h.idx[tri(a, b)] = -1 // outside the sphere at every z
				continue
			}
			i, ok := distinct[uint32(4*key)]
			if !ok {
				i = h.addSpan(m-a, m-b)
				distinct[uint32(4*key)] = i
			}
			h.idx[tri(a, b)] = i
		}
	}
	h.vox = make([]uint8, 0, h.off[len(h.lo)])
	next := int32(0) // distinct columns are numbered in first-seen order
	for b := 0; b <= m; b++ {
		for a := 0; a <= b; a++ {
			if h.idx[tri(a, b)] != next {
				continue
			}
			for z := int(h.lo[next]); len(h.vox) < int(h.off[next+1]); z++ {
				h.vox = append(h.vox, voxel(n, nz, m-a, m-b, z))
			}
			next++
		}
	}
	return h
}

// tri is the position of folded column (a, b), a ≤ b, in the index.
func tri(a, b int) int { return b*(b+1)/2 + a }

// addSpan records column (x, y)'s nonzero span [lo, hi) as the next
// distinct column and returns its index, or -1 when the column has no
// nonzero voxel.
func (h *Head) addSpan(x, y int) int32 {
	lo := 0
	for lo < h.nz && voxel(h.n, h.nz, x, y, lo) == 0 {
		lo++
	}
	if lo == h.nz {
		return -1
	}
	hi := h.nz
	for voxel(h.n, h.nz, x, y, hi-1) == 0 {
		hi--
	}
	h.lo = append(h.lo, int32(lo))
	h.off = append(h.off, h.off[len(h.off)-1]+int32(hi-lo))
	return int32(len(h.lo) - 1)
}

// voxel is the head's density at (x, y, z): concentric shells of
// alternating dense and sparse bands inside a bounding sphere, empty
// outside.
func voxel(n, nz, x, y, z int) uint8 {
	cx, cy, cz := float64(n)/2, float64(n)/2, float64(nz)/2
	r := 0.45 * float64(n)
	dx, dy, dz := float64(x)-cx, float64(y)-cy, (float64(z)-cz)*2
	d2 := dx*dx + dy*dy + dz*dz
	if d2 > r*r {
		return 0
	}
	switch int(d2/(r*r)*8) % 3 {
	case 0:
		return 200
	case 1:
		return 40
	default:
		return 90
	}
}

// fold maps a coordinate to its distance class from the centre, |2x-n|/2.
func (h *Head) fold(x int) int {
	d := 2*x - h.n
	if d < 0 {
		d = -d
	}
	return d >> 1
}

// Column returns column (x, y)'s nonzero span: vox[i] is the voxel at
// z = lo+i, and every other voxel of the column is zero. An empty column
// returns a nil vox.
func (h *Head) Column(x, y int) (lo int, vox []uint8) {
	a, b := h.fold(x), h.fold(y)
	if a > b {
		a, b = b, a
	}
	i := h.idx[tri(a, b)]
	if i < 0 {
		return 0, nil
	}
	return int(h.lo[i]), h.vox[h.off[i]:h.off[i+1]]
}
