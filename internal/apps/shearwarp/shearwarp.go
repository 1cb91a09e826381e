// Package shearwarp reimplements the memory behaviour of the parallel
// shear-warp volume renderer (paper §2.2.2, §4.2.2; Lacroute's factorization
// as parallelized in the companion PPoPP'97 paper). Rendering has two
// phases: the run-length-encoded volume is composited slice by slice into an
// intermediate image in scanline order, and the intermediate image is then
// warped into the final image.
//
// Versions:
//
//   - orig: the intermediate image is partitioned into small interleaved
//     chunks of scanlines (for load balance); the warp partitions the FINAL
//     image into blocks of tiles — a different partition, so most
//     intermediate data a processor reads in the warp was written by other
//     processors (the redistribution the paper blames), with an expensive
//     barrier between the phases;
//   - pad:  intermediate-image scanlines padded and aligned to pages (the
//     paper measured about +10%);
//   - opt:  the restructured algorithm — the intermediate image is split
//     into p CONTIGUOUS blocks of scanlines sized by dynamic profiling of
//     per-scanline cost, the SAME partition is used for both phases (each
//     processor warps from intermediate rows it itself wrote, boundary
//     rows designated to one neighbour), and the inter-phase barrier is
//     eliminated (3.47 -> 9.21 in the paper).
package shearwarp

import (
	"fmt"
	"math"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

const (
	runCost   = 30 // cycles per RLE run processed
	voxCost   = 18 // cycles per non-transparent voxel composited
	warpCost  = 14 // cycles per final pixel resampled
	slabs     = 4  // write passes over an intermediate scanline (slice groups)
	chunkRows = 2  // scanlines per interleaved chunk in the original version
)

type app struct{}

func init() { core.Register(app{}) }

// Name implements core.App.
func (app) Name() string { return "shearwarp" }

// Versions implements core.App.
func (app) Versions() []core.Version {
	return []core.Version{
		{Name: "orig", Class: core.Orig, Desc: "interleaved scanline chunks; blocked warp; inter-phase barrier"},
		{Name: "pad", Class: core.PA, Desc: "intermediate scanlines padded to pages"},
		{Name: "opt", Class: core.Alg, Desc: "profiled contiguous blocks, same partition in both phases, no barrier"},
	}
}

type instance struct {
	n, nz, np int
	opt       bool

	head   *apputil.Head
	rleAdr uint64
	rleOff []int // per-scanline offset into the RLE data
	rleLen []int // per-scanline RLE byte length
	runs   []int // per-scanline run count
	cost   []uint64

	inter    []float64
	interLay *mem.Array2D
	final    []float64
	finalLay *mem.Array2D

	// Partitions.
	rowOwner []int // intermediate scanline -> owner (composite phase)
	blockLo  []int // opt: contiguous block bounds per processor
	blockHi  []int
}

// Build implements core.App.
func (app) Build(version string, scale float64, as *mem.AddressSpace, np int) (core.Instance, error) {
	in := &instance{np: np}
	n, err := apputil.Size("shearwarp", 128, scale, 4*np, 4*np)
	if err != nil {
		return nil, err
	}
	in.n = n
	in.nz = n / 2

	// Head volume, ray-major like Volrend's, then run-length encoded per
	// intermediate scanline.
	in.head = apputil.NewHead(n, in.nz)
	in.rleOff = make([]int, n+1)
	in.rleLen = make([]int, n)
	in.runs = make([]int, n)
	in.cost = make([]uint64, n)
	total := 0
	for y := 0; y < n; y++ {
		nvox, runs := rleScan(in.head, n, in.nz, y)
		in.rleOff[y] = total
		in.rleLen[y] = nvox + 2*runs
		in.runs[y] = runs
		in.cost[y] = uint64(runs*runCost) + uint64(nvox*voxCost)
		total += in.rleLen[y]
	}
	in.rleOff[n] = total
	in.rleAdr = as.AllocPages(total)
	as.DistributeRoundRobin(in.rleAdr, total)

	pad := uint64(0)
	switch version {
	case "orig":
	case "pad":
		pad = as.PageSize()
	case "opt":
		in.opt = true
	default:
		return nil, fmt.Errorf("shearwarp: unknown version %q", version)
	}

	if pad > 0 {
		in.interLay = mem.NewArray2DPadded(as, n, n, 4, pad)
	} else {
		in.interLay = mem.NewArray2D(as, n, n, 4)
	}
	in.finalLay = mem.NewArray2D(as, n, n, 4)
	in.inter = make([]float64, n*n)
	in.final = make([]float64, n*n)

	// Composite-phase partition of intermediate scanlines.
	in.rowOwner = make([]int, n)
	if in.opt {
		// Dynamic profiling: split scanlines into contiguous blocks of
		// near-equal measured cost.
		in.blockLo = make([]int, np)
		in.blockHi = make([]int, np)
		var sum uint64
		for _, c := range in.cost {
			sum += c
		}
		per := sum / uint64(np)
		q, acc := 0, uint64(0)
		in.blockLo[0] = 0
		for y := 0; y < n; y++ {
			if q < np-1 && acc >= per*(uint64(q)+1) {
				in.blockHi[q] = y
				q++
				in.blockLo[q] = y
			}
			in.rowOwner[y] = q
			acc += in.cost[y]
		}
		in.blockHi[np-1] = n
		for q := 0; q < np; q++ {
			lo, hi := in.blockLo[q], in.blockHi[q]
			if hi > lo {
				as.SetHome(in.interLay.RowAddr(lo), (hi-lo)*int(in.interLay.Pitch), q)
				as.SetHome(in.finalLay.RowAddr(lo), (hi-lo)*int(in.finalLay.Pitch), q)
			}
		}
	} else {
		// Interleaved chunks of scanlines.
		for y := 0; y < n; y++ {
			in.rowOwner[y] = (y / chunkRows) % np
		}
		as.DistributeRoundRobin(in.interLay.Base, in.interLay.Size())
		as.DistributeRoundRobin(in.finalLay.Base, in.finalLay.Size())
	}
	return in, nil
}

// rleScan counts the non-transparent voxels and runs of scanline y. The
// volume is scanned column after column, so a run that reaches the top of
// one column continues into the next column if that one starts at z = 0.
func rleScan(h *apputil.Head, n, nz, y int) (nvox, runs int) {
	inRun := false // the previous column's top voxel is set
	for x := 0; x < n; x++ {
		lo, vox := h.Column(x, y)
		if len(vox) == 0 {
			inRun = false
			continue
		}
		nvox += len(vox)
		if lo > 0 || !inRun {
			runs++
		}
		inRun = lo+len(vox) == nz
	}
	return nvox, runs
}

// compositeRow computes intermediate scanline y into row (front-to-back
// compositing down z for each column). Only a column's nonzero span is
// walked: the RLE skips transparent voxels.
func compositeRow(h *apputil.Head, n, y int, row []float64) {
	for x := 0; x < n; x++ {
		var acc, alpha float64
		_, vox := h.Column(x, y)
		for _, v := range vox {
			d := float64(v) / 255
			a := d * 0.05
			acc += (1 - alpha) * a * d * 255
			alpha += (1 - alpha) * a
			if alpha > 0.95 {
				break
			}
		}
		row[x] = acc
	}
}

// warpRow resamples intermediate scanline y (inter) into final scanline y
// (out) with a per-row horizontal shear (the 2-d warp of the factorization).
func warpRow(inter []float64, n, y int, out []float64) {
	shift := 0.25 * float64(y) / float64(n) * 8
	fx := shift - math.Floor(shift)
	s := int(shift)
	for x := 0; x < n; x++ {
		x0 := x + s
		v := 0.0
		if x0 >= 0 && x0 < n {
			v += (1 - fx) * inter[x0]
		}
		if x0+1 >= 0 && x0+1 < n {
			v += fx * inter[x0+1]
		}
		out[x] = v
	}
}

// compositeScanline performs phase-1 work for scanline y with simulated
// accesses: read the RLE data, write the intermediate row once per slab.
func (in *instance) compositeScanline(p *sim.Proc, y int) {
	compositeRow(in.head, in.n, y, in.row(in.inter, y))
	p.ReadRange(in.rleAdr+uint64(in.rleOff[y]), in.rleLen[y])
	for s := 0; s < slabs; s++ {
		p.WriteRange(in.interLay.RowAddr(y), in.n*4)
	}
	p.Compute(in.cost[y])
}

// warpScanline performs phase-2 work for final scanline y: read the
// intermediate row and write the final row.
func (in *instance) warpScanline(p *sim.Proc, y int) {
	warpRow(in.row(in.inter, y), in.n, y, in.row(in.final, y))
	p.ReadRange(in.interLay.RowAddr(y), in.n*4)
	p.WriteRange(in.finalLay.RowAddr(y), in.n*4)
	p.Compute(uint64(in.n * warpCost))
}

// warpBlockRow warps the [x0, x1) segment of final scanline y (the blocked
// warp partition of the original version). The real computation for the row
// is done once, by the block owner covering column 0.
func (in *instance) warpBlockRow(p *sim.Proc, y, x0, x1 int) {
	if x0 == 0 {
		warpRow(in.row(in.inter, y), in.n, y, in.row(in.final, y))
	}
	p.ReadRange(in.interLay.Addr(y, x0), (x1-x0)*4)
	p.WriteRange(in.finalLay.Addr(y, x0), (x1-x0)*4)
	p.Compute(uint64((x1 - x0) * warpCost))
}

// row returns scanline y of an n×n image.
func (in *instance) row(img []float64, y int) []float64 { return img[y*in.n : (y+1)*in.n] }

// Body implements core.Instance.
func (in *instance) Body(p *sim.Proc) {
	id := p.ID()
	n := in.n
	p.Barrier()
	if in.opt {
		// Phase 1+2 fused over the processor's contiguous block: no
		// inter-phase barrier; every intermediate row a processor
		// warps from is one it composited itself (boundary rows are
		// designated to one neighbour via host rows).
		for y := in.blockLo[id]; y < in.blockHi[id]; y++ {
			in.compositeScanline(p, y)
		}
		for y := in.blockLo[id]; y < in.blockHi[id]; y++ {
			in.warpScanline(p, y)
		}
	} else {
		for y := 0; y < n; y++ {
			if in.rowOwner[y] == id {
				in.compositeScanline(p, y)
			}
		}
		p.Barrier() // redistribution point
		// Warp partition: 2-d blocks of final-image tiles — a different
		// partition from the compositing phase, so the rows a processor
		// resamples were mostly composited by OTHER processors, and each
		// intermediate page is read by several warp processors (the
		// redistribution + fragmentation the paper blames).
		pr, pc := apputil.ProcGrid(in.np)
		bh, bw := n/pr, n/pc
		py, px := id/pc, id%pc
		for y := py * bh; y < (py+1)*bh; y++ {
			in.warpBlockRow(p, y, px*bw, (px+1)*bw)
		}
	}
	p.Barrier()
}

// Verify implements core.Instance: it recomputes the reference images a
// scanline at a time and compares them with what the run produced.
func (in *instance) Verify() error {
	n := in.n
	refI, refF := make([]float64, n), make([]float64, n)
	for y := 0; y < n; y++ {
		compositeRow(in.head, n, y, refI)
		warpRow(refI, n, y, refF)
		for x := 0; x < n; x++ {
			if got := in.inter[y*n+x]; math.Abs(got-refI[x]) > 1e-12 {
				return fmt.Errorf("shearwarp: intermediate pixel %d = %g, want %g", y*n+x, got, refI[x])
			}
			if got := in.final[y*n+x]; math.Abs(got-refF[x]) > 1e-12 {
				return fmt.Errorf("shearwarp: final pixel %d = %g, want %g", y*n+x, got, refF[x])
			}
		}
	}
	return nil
}
