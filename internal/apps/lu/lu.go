// Package lu reimplements the SPLASH-2 blocked dense LU factorization
// (paper §2.2.1, §4.1.1). The kernel factors an n x n matrix without
// pivoting using B x B blocks under a 2-d scatter decomposition. The
// restructured versions differ only in the simulated memory layout of the
// matrix:
//
//   - orig: the "non-contiguous" 2-d array — a page spans sub-rows of
//     blocks owned by different processors (false sharing + fragmentation);
//   - pad:  each sub-row of each block padded and aligned to a page (the
//     paper's P/A attempt — storage-hungry and still fragmented);
//   - 4d:   the "contiguous" 4-d array: every block contiguous (DS class);
//   - 4da:  4-d with blocks additionally page-aligned and homed at their
//     owners — the version that reaches the paper's 20.6 speedup.
package lu

import (
	"fmt"
	"math"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

// blockSize is the paper's 32x32 blocking ("even with the 32 by 32 blocks,
// we use only 32x8 or 256 bytes out of each 4KB page", §4.1.1).
const blockSize = 32

type app struct{}

func init() { core.Register(app{}) }

// Name implements core.App.
func (app) Name() string { return "lu" }

// Versions implements core.App.
func (app) Versions() []core.Version {
	return []core.Version{
		{Name: "orig", Class: core.Orig, Desc: "non-contiguous 2-d array"},
		{Name: "pad", Class: core.PA, Desc: "block sub-rows padded and page-aligned"},
		{Name: "4d", Class: core.DS, Desc: "contiguous blocks (4-d array)"},
		{Name: "4da", Class: core.Alg, Desc: "4-d blocks page-aligned and homed at owners"},
	}
}

// padLayout is the paper's P/A layout: every sub-row of every block sits on
// its own page ("we use only 32x8 or 256 bytes out of each 4KB page").
type padLayout struct {
	base     uint64
	n, b     int
	pageSize uint64
}

func (l *padLayout) Addr(i, j int) uint64 {
	subRow := i*(l.n/l.b) + j/l.b
	return l.base + uint64(subRow)*l.pageSize + uint64(j%l.b)*8
}

type instance struct {
	n, b, np int
	pr, pc   int // processor grid
	lay      mem.Layout2D
	data     []float64
}

// Build implements core.App.
func (app) Build(version string, scale float64, as *mem.AddressSpace, np int) (core.Instance, error) {
	n, err := apputil.Size("lu", 256, scale, blockSize, 2*blockSize)
	if err != nil {
		return nil, err
	}
	in := &instance{n: n, b: blockSize, np: np}
	in.pr, in.pc = apputil.ProcGridFloor(np)

	nb := n / in.b
	switch version {
	case "orig":
		m := mem.NewArray2D(as, n, n, 8)
		as.DistributeRoundRobin(m.Base, m.Size())
		in.lay = m
	case "pad":
		l := &padLayout{n: n, b: in.b, pageSize: as.PageSize()}
		size := nb * n * int(as.PageSize())
		l.base = as.AllocPages(size)
		// With a page per sub-row, pages CAN be homed at owners.
		for i := 0; i < n; i++ {
			for bj := 0; bj < nb; bj++ {
				a := l.Addr(i, bj*in.b)
				as.SetHome(a, int(as.PageSize()), in.owner(i/in.b, bj))
			}
		}
		in.lay = l
	case "4d":
		// A realistic heap offset: without explicit alignment the
		// allocator does not hand out page-aligned blocks, so block
		// boundaries straddle pages shared with the neighbouring
		// block's owner — the paper's Figure 3 situation ("page
		// alignment problems").
		as.Alloc(1280)
		m := mem.NewArray4D(as, n, n, in.b, in.b, 8, 1)
		for bi := 0; bi < nb; bi++ {
			for bj := 0; bj < nb; bj++ {
				as.SetHome(m.BlockAddr(bi, bj), m.BlockBytes(), in.owner(bi, bj))
			}
		}
		in.lay = m
	case "4da":
		m := mem.NewArray4D(as, n, n, in.b, in.b, 8, as.PageSize())
		for bi := 0; bi < nb; bi++ {
			for bj := 0; bj < nb; bj++ {
				as.SetHome(m.BlockAddr(bi, bj), int(m.BlockStride()), in.owner(bi, bj))
			}
		}
		in.lay = m
	default:
		return nil, fmt.Errorf("lu: unknown version %q", version)
	}

	rng := apputil.NewRNG(inputSeed)
	in.data = make([]float64, n*n)
	for i := 0; i < n; i++ {
		drawRow(rng, in.data[i*n:(i+1)*n], i)
	}
	return in, nil
}

// inputSeed seeds the input matrix, which is drawn row by row in row-major
// order: Verify regenerates it from the seed rather than keep a copy.
const inputSeed = 12345

// drawRow fills row i of the input matrix, a well-conditioned, diagonally
// dominant random matrix, from rng once rng has drawn rows 0..i-1.
func drawRow(rng *apputil.RNG, row []float64, i int) {
	for j := range row {
		row[j] = rng.Float64()
	}
	row[i] += float64(len(row))
}

// owner returns the processor owning block (bi, bj) under the 2-d scatter
// decomposition.
func (in *instance) owner(bi, bj int) int {
	return (bi%in.pr)*in.pc + (bj % in.pc)
}

// touchBlock issues the simulated accesses for using block (bi, bj): one
// range per sub-row (contiguous in every layout).
func (in *instance) touchBlock(p *sim.Proc, bi, bj int, write bool) {
	b := in.b
	for r := 0; r < b; r++ {
		a := in.lay.Addr(bi*b+r, bj*b)
		if write {
			p.WriteRange(a, b*8)
		} else {
			p.ReadRange(a, b*8)
		}
	}
}

// touchBlockReuse models a block operand that the kernel's inner loops walk
// `walks` times (e.g. the U block in bmod is streamed once per row of A):
// the first walk runs normally (page faults, cold misses), a second probe
// walk measures the steady-state conflict-miss cost of the layout, and the
// remaining walks are extrapolated from the probe. This is what makes the
// 2-d layouts pay for their cache conflicts — the source of the paper's
// superlinear speedups over the 2-d uniprocessor baseline.
func (in *instance) touchBlockReuse(p *sim.Proc, bi, bj, walks int) {
	in.touchBlock(p, bi, bj, false)
	if walks <= 1 {
		return
	}
	before := p.CacheStallCycles()
	in.touchBlock(p, bi, bj, false)
	perWalk := p.CacheStallCycles() - before
	if walks > 2 {
		p.Stall(uint64(walks-2) * perWalk)
	}
}

// --- real arithmetic on the row-major matrix ---

func (in *instance) at(i, j int) *float64 { return &in.data[i*in.n+j] }

// factor performs the unblocked LU of diagonal block kk in place.
func (in *instance) factor(kk int) {
	b, o := in.b, kk*in.b
	for k := 0; k < b; k++ {
		pivot := *in.at(o+k, o+k)
		for i := k + 1; i < b; i++ {
			*in.at(o+i, o+k) /= pivot
			lik := *in.at(o+i, o+k)
			for j := k + 1; j < b; j++ {
				*in.at(o+i, o+j) -= lik * *in.at(o+k, o+j)
			}
		}
	}
}

// bdiv computes A[bi][kk] = A[bi][kk] * U^{-1} (column panel of L).
func (in *instance) bdiv(bi, kk int) {
	b := in.b
	ro, co, do := bi*b, kk*b, kk*b
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			s := *in.at(ro+i, co+j)
			for k := 0; k < j; k++ {
				s -= *in.at(ro+i, co+k) * *in.at(do+k, do+j)
			}
			*in.at(ro+i, co+j) = s / *in.at(do+j, do+j)
		}
	}
}

// bmodd computes A[kk][bj] = L^{-1} * A[kk][bj] (row panel of U; L has unit
// diagonal).
func (in *instance) bmodd(kk, bj int) {
	b := in.b
	ro, co, do := kk*b, bj*b, kk*b
	for i := 0; i < b; i++ {
		for k := 0; k < i; k++ {
			lik := *in.at(do+i, do+k)
			for j := 0; j < b; j++ {
				*in.at(ro+i, co+j) -= lik * *in.at(ro+k, co+j)
			}
		}
	}
}

// bmod computes the interior update A[bi][bj] -= A[bi][kk] * A[kk][bj].
func (in *instance) bmod(bi, bj, kk int) {
	b := in.b
	ro, co := bi*b, bj*b
	lo, uo := kk*b, kk*b
	for i := 0; i < b; i++ {
		for k := 0; k < b; k++ {
			lik := *in.at(ro+i, lo+k)
			for j := 0; j < b; j++ {
				*in.at(ro+i, co+j) -= lik * *in.at(uo+k, co+j)
			}
		}
	}
}

// Body implements core.Instance: the SPMD blocked LU.
func (in *instance) Body(p *sim.Proc) {
	id := p.ID()
	b := in.b
	nb := in.n / b
	flops := uint64(b * b * b)
	// Two barriers per step, as in SPLASH-2 LU: the diagonal factor only
	// needs its owner's own interior updates from the previous step, so
	// no barrier is needed between interior and factor.
	for kk := 0; kk < nb; kk++ {
		if in.owner(kk, kk) == id {
			in.factor(kk)
			in.touchBlockReuse(p, kk, kk, in.b)
			in.touchBlock(p, kk, kk, true)
			p.Compute(2 * flops / 3)
		}
		p.Barrier()
		for bi := kk + 1; bi < nb; bi++ {
			if in.owner(bi, kk) == id {
				in.bdiv(bi, kk)
				in.touchBlockReuse(p, kk, kk, in.b)
				in.touchBlock(p, bi, kk, false)
				in.touchBlock(p, bi, kk, true)
				p.Compute(flops)
			}
		}
		for bj := kk + 1; bj < nb; bj++ {
			if in.owner(kk, bj) == id {
				in.bmodd(kk, bj)
				in.touchBlock(p, kk, kk, false)
				in.touchBlockReuse(p, kk, bj, in.b)
				in.touchBlock(p, kk, bj, true)
				p.Compute(flops)
			}
		}
		p.Barrier()
		for bi := kk + 1; bi < nb; bi++ {
			for bj := kk + 1; bj < nb; bj++ {
				if in.owner(bi, bj) == id {
					in.bmod(bi, bj, kk)
					in.touchBlock(p, bi, kk, false)
					in.touchBlockReuse(p, kk, bj, in.b)
					in.touchBlock(p, bi, bj, false)
					in.touchBlock(p, bi, bj, true)
					p.Compute(2 * flops)
				}
			}
		}
	}
	p.Barrier()
}

// Verify implements core.Instance: reconstruct L*U and compare against the
// original matrix, regenerated row by row from its seed.
func (in *instance) Verify() error {
	n := in.n
	var maxErr float64
	rng, orig := apputil.NewRNG(inputSeed), make([]float64, n)
	// Row i of L*U, accumulated in i-k-j order so the inner loop streams
	// rows of U: element j gathers L[i][k]*U[k][j] for k < min(i, j) in
	// ascending k from zero, the same sum in the same order as the
	// per-element dot product, so maxErr is bit-identical to it.
	acc := make([]float64, n)
	for i := 0; i < n; i++ {
		clear(acc)
		drawRow(rng, orig, i)
		row := in.data[i*n : (i+1)*n]
		for k := 0; k < i; k++ {
			l, urow := row[k], in.data[k*n:(k+1)*n]
			for j := k + 1; j < n; j++ {
				acc[j] += l * urow[j]
			}
		}
		for j, s := range acc {
			if i <= j {
				s += row[j] // U[i][j], L[i][i]=1
			} else {
				s += row[j] * in.data[j*n+j] // L[i][j]*U[j][j]
			}
			if e := math.Abs(s - orig[j]); e > maxErr {
				maxErr = e
			}
		}
	}
	if maxErr > 1e-6*float64(n) {
		return fmt.Errorf("lu: reconstruction error %g too large", maxErr)
	}
	return nil
}
