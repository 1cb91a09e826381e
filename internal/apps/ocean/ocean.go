// Package ocean reimplements the memory behaviour of SPLASH-2 Ocean (paper
// §2.2.1, §4.1.2): an iterative nearest-neighbour solver over regular grids
// with many barriers per time-step and a lock-protected global convergence
// test. The solver is a Jacobi relaxation over two grids — the paper
// analyses Ocean purely as a near-neighbour grid code, so the full
// eddy-current physics adds nothing to the study (see DESIGN.md §6).
//
// Versions:
//
//   - orig: 2-d arrays, square subgrid partitions — fine-grained sharing at
//     column-oriented boundaries, false sharing inside pages that span
//     several processors' sub-rows;
//   - pad:  every grid row padded and aligned to a page (P/A class);
//   - 4d:   4-d arrays, square partitions contiguous and homed at their
//     owners (DS class, the SPLASH-2 "contiguous" version);
//   - rows: row-wise partitioning of n/p contiguous whole rows (Alg class) —
//     a worse inherent communication-to-computation ratio, but only
//     coarse-grained row-boundary communication, and partitions are
//     contiguous even in a plain 2-d array.
package ocean

import (
	"fmt"
	"math"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

const iterations = 20

type app struct{}

func init() { core.Register(app{}) }

// Name implements core.App.
func (app) Name() string { return "ocean" }

// Versions implements core.App.
func (app) Versions() []core.Version {
	return []core.Version{
		{Name: "orig", Class: core.Orig, Desc: "2-d arrays, square partitions"},
		{Name: "pad", Class: core.PA, Desc: "rows padded and page-aligned"},
		{Name: "4d", Class: core.DS, Desc: "contiguous square partitions (4-d arrays)"},
		{Name: "rows", Class: core.Alg, Desc: "row-wise partitioning of contiguous rows"},
	}
}

type instance struct {
	n, np  int
	pr, pc int  // processor grid (square versions)
	rows   bool // row-wise partitioning
	a, b   []float64
	ref    []float64 // sequential reference result
	la, lb mem.Layout2D
	blockW int // 4-d block width, 0 for 2-d layouts
	errAdr uint64
	errSum float64
	// errParts[id] is processor id's convergence contribution for the
	// current iteration; proc 0 folds them in id order so errSum does not
	// depend on the simulated lock-grant order (floats don't associate).
	errParts []float64
}

// Build implements core.App.
func (app) Build(version string, scale float64, as *mem.AddressSpace, np int) (core.Instance, error) {
	in := &instance{np: np}
	in.pr, in.pc = apputil.ProcGridFloor(np)
	// Grid must divide evenly into the processor grid for both layouts.
	lcm := in.pr * in.pc
	n, err := apputil.Size("ocean", 256, scale, lcm, 4*lcm)
	if err != nil {
		return nil, err
	}
	in.n = n

	mk2d := func(pad bool) (mem.Layout2D, mem.Layout2D) {
		if pad {
			return mem.NewArray2DPadded(as, n, n, 8, as.PageSize()),
				mem.NewArray2DPadded(as, n, n, 8, as.PageSize())
		}
		ga := mem.NewArray2D(as, n, n, 8)
		gb := mem.NewArray2D(as, n, n, 8)
		return ga, gb
	}

	switch version {
	case "orig":
		in.la, in.lb = mk2d(false)
		for _, l := range []mem.Layout2D{in.la, in.lb} {
			m := l.(*mem.Array2D)
			as.DistributeRoundRobin(m.Base, m.Size())
		}
	case "pad":
		in.la, in.lb = mk2d(true)
		for _, l := range []mem.Layout2D{in.la, in.lb} {
			m := l.(*mem.Array2D)
			// Row-aligned pages can at least be homed at the row's
			// majority owner (the processor-row owning the row).
			for i := 0; i < n; i++ {
				as.SetHome(m.RowAddr(i), int(m.Pitch), in.ownerSquare(i, 0))
			}
		}
	case "4d":
		bh, bw := n/in.pr, n/in.pc
		in.blockW = bw
		m1 := mem.NewArray4D(as, n, n, bh, bw, 8, as.PageSize())
		m2 := mem.NewArray4D(as, n, n, bh, bw, 8, as.PageSize())
		for bi := 0; bi < in.pr; bi++ {
			for bj := 0; bj < in.pc; bj++ {
				owner := bi*in.pc + bj
				as.SetHome(m1.BlockAddr(bi, bj), int(m1.BlockStride()), owner)
				as.SetHome(m2.BlockAddr(bi, bj), int(m2.BlockStride()), owner)
			}
		}
		in.la, in.lb = m1, m2
	case "rows":
		in.rows = true
		in.la, in.lb = mk2d(false)
		for _, l := range []mem.Layout2D{in.la, in.lb} {
			m := l.(*mem.Array2D)
			for id := 0; id < np; id++ {
				lo, hi := apputil.Split(n, np, id)
				as.SetHome(m.RowAddr(lo), (hi-lo)*int(m.Pitch), id)
			}
		}
	default:
		return nil, fmt.Errorf("ocean: unknown version %q", version)
	}

	in.errAdr = as.Alloc(8)
	in.errParts = make([]float64, np)

	// Initial condition: a smooth bump plus deterministic noise.
	in.a = make([]float64, n*n)
	in.b = make([]float64, n*n)
	rng := apputil.NewRNG(777)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := float64(i) / float64(n)
			y := float64(j) / float64(n)
			in.a[i*n+j] = math.Sin(math.Pi*x)*math.Sin(math.Pi*y) + 0.01*rng.Float64()
		}
	}
	copy(in.b, in.a)
	in.ref = sequentialReference(in.a, n)
	return in, nil
}

// sequentialReference runs the same Jacobi iterations serially.
func sequentialReference(init []float64, n int) []float64 {
	a := append([]float64(nil), init...)
	b := append([]float64(nil), init...)
	for t := 0; t < iterations; t++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				b[i*n+j] = 0.2 * (a[i*n+j] + a[(i-1)*n+j] + a[(i+1)*n+j] + a[i*n+j-1] + a[i*n+j+1])
			}
		}
		a, b = b, a
	}
	return a
}

// ownerSquare returns the owner of point (i, j) under the square partition.
func (in *instance) ownerSquare(i, j int) int {
	bh, bw := in.n/in.pr, in.n/in.pc
	return (i/bh)*in.pc + j/bw
}

// span returns this processor's subgrid [r0,r1) x [c0,c1).
func (in *instance) span(id int) (r0, r1, c0, c1 int) {
	if in.rows {
		r0, r1 = apputil.Split(in.n, in.np, id)
		return r0, r1, 0, in.n
	}
	bh, bw := in.n/in.pr, in.n/in.pc
	pi, pj := id/in.pc, id%in.pc
	return pi * bh, (pi + 1) * bh, pj * bw, (pj + 1) * bw
}

// touchRowSpan touches the cache lines of logical row i, columns [j0, j1),
// splitting at 4-d block boundaries where the row is not contiguous.
func (in *instance) touchRowSpan(p *sim.Proc, l mem.Layout2D, i, j0, j1 int, write bool) {
	if in.blockW == 0 {
		a := l.Addr(i, j0)
		if write {
			p.WriteRange(a, (j1-j0)*8)
		} else {
			p.ReadRange(a, (j1-j0)*8)
		}
		return
	}
	for j := j0; j < j1; {
		end := (j/in.blockW + 1) * in.blockW
		if end > j1 {
			end = j1
		}
		a := l.Addr(i, j)
		if write {
			p.WriteRange(a, (end-j)*8)
		} else {
			p.ReadRange(a, (end-j)*8)
		}
		j = end
	}
}

// Body implements core.Instance.
func (in *instance) Body(p *sim.Proc) {
	id := p.ID()
	n := in.n
	r0, r1, c0, c1 := in.span(id)
	src, dst := in.a, in.b
	lsrc, ldst := in.la, in.lb

	for t := 0; t < iterations; t++ {
		var localErr float64
		// Ghost reads: the boundary rows/columns of neighbouring
		// partitions. Row boundaries are contiguous; column
		// boundaries are one word per page-strided row — the paper's
		// fine-grained fragmentation case.
		if r0 > 1 {
			in.touchRowSpan(p, lsrc, r0-1, c0, c1, false)
		}
		if r1 < n-1 {
			in.touchRowSpan(p, lsrc, r1, c0, c1, false)
		}
		if c0 > 1 {
			for i := r0; i < r1; i++ {
				p.Read(lsrc.Addr(i, c0-1))
			}
		}
		if c1 < n-1 {
			for i := r0; i < r1; i++ {
				p.Read(lsrc.Addr(i, c1))
			}
		}
		// Interior update.
		for i := max(r0, 1); i < min(r1, n-1); i++ {
			jlo, jhi := max(c0, 1), min(c1, n-1)
			in.touchRowSpan(p, lsrc, i, jlo, jhi, false)
			in.touchRowSpan(p, ldst, i, jlo, jhi, true)
			for j := jlo; j < jhi; j++ {
				v := 0.2 * (src[i*n+j] + src[(i-1)*n+j] + src[(i+1)*n+j] + src[i*n+j-1] + src[i*n+j+1])
				if d := math.Abs(v - src[i*n+j]); d > localErr {
					localErr = d
				}
				dst[i*n+j] = v
			}
			p.Compute(uint64(7 * (jhi - jlo)))
		}
		// Global convergence accumulation under a lock, as in Ocean. The
		// simulated traffic stays the shared-word read-modify-write, but
		// the host-side value is deposited per processor and folded in id
		// order by proc 0 after the barrier: summing here in lock-grant
		// order made errSum interleaving-dependent (floats don't
		// associate), and the old "proc 0 resets at t=0" under the lock
		// discarded whichever t=0 contributions were deposited before
		// proc 0 happened to get the lock.
		p.Lock(1)
		p.Read(in.errAdr)
		in.errParts[id] = localErr
		p.Write(in.errAdr)
		p.Unlock(1)
		p.Barrier()
		if id == 0 {
			if t == 0 {
				in.errSum = 0
			}
			for _, e := range in.errParts {
				in.errSum += e
			}
		}
		src, dst = dst, src
		lsrc, ldst = ldst, lsrc
		p.Barrier()
	}
}

// Verify implements core.Instance.
func (in *instance) Verify() error {
	final := in.a
	if iterations%2 == 1 {
		final = in.b
	}
	for i := range final {
		if math.Abs(final[i]-in.ref[i]) > 1e-12 {
			return fmt.Errorf("ocean: grid point %d = %g, want %g", i, final[i], in.ref[i])
		}
	}
	return nil
}
