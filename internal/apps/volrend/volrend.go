// Package volrend reimplements the memory behaviour of SPLASH-2 Volrend
// (paper §2.2.2, §4.2.1): a volume ray-caster with per-processor task queues
// and task stealing. The image plane is divided into per-processor blocks of
// small tiles; a tile is the unit of work and of stealing. Ray cost varies
// strongly across the image (empty-space skipping outside the head, early
// ray termination inside it), so the blocked initial partition is imbalanced
// and the original code relies on stealing — which is nearly free on
// hardware cache coherence and very expensive on SVM.
//
// Versions:
//
//   - orig:     blocked partition, contiguous per-processor blocks of tiles,
//     2-d image (pages span processors' partitions), stealing on;
//   - pad:      every task-queue entry padded and aligned to a page (P/A;
//     cuts queue false sharing but adds fragmentation — not beneficial);
//   - ds4d:     image restructured as a 4-d array, partitions contiguous,
//     page-aligned and homed (DS class; the paper finds it HURTS — 7.09
//     to 6.27 — because pixel addressing gets costlier and interacts with
//     stealing);
//   - balanced: the Alg-class fix — many small block pieces assigned
//     round-robin for initial balance, stealing still on (11.42);
//   - nosteal:  balanced assignment with stealing disabled (11.70) —
//     trades a little barrier imbalance for no lock serialization.
package volrend

import (
	"fmt"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

const (
	tile     = 4 // pixels per tile side
	maxAlpha = 0.95
	// Per-sample compositing in Volrend does a trilinear interpolation,
	// gradient shading, classification and opacity update — roughly 30
	// scalar-code cycles per sample on a 1997 processor.
	voxelCost  = 30
	pixelSetup = 150 // ray setup, clipping, termination
	// frames is the number of frames rendered; the volume distribution
	// cost amortizes over the sequence, as in the SPLASH-2 runs.
	frames = 4
)

type app struct{}

func init() { core.Register(app{}) }

// Name implements core.App.
func (app) Name() string { return "volrend" }

// Versions implements core.App.
func (app) Versions() []core.Version {
	return []core.Version{
		{Name: "orig", Class: core.Orig, Desc: "blocked tile partition, 2-d image, stealing"},
		{Name: "pad", Class: core.PA, Desc: "task-queue entries padded to pages"},
		{Name: "ds4d", Class: core.DS, Desc: "4-d image, partitions contiguous and aligned (hurts)"},
		{Name: "balanced", Class: core.Alg, Desc: "small round-robin task pieces, stealing"},
		{Name: "nosteal", Class: core.Alg, Desc: "small round-robin task pieces, no stealing"},
	}
}

type instance struct {
	n, nz, np int
	steal     bool
	fourD     bool

	head    *apputil.Head
	volAdr  uint64
	img     []uint32
	imgLay  mem.Layout2D
	queues  []*apputil.TaskQueue
	assign  [][]int // per-processor initial task lists (per frame)
	extraPx uint64  // extra per-pixel addressing cost (ds4d)
}

// Build implements core.App.
func (app) Build(version string, scale float64, as *mem.AddressSpace, np int) (core.Instance, error) {
	in := &instance{np: np, steal: true}
	n, err := apputil.Size("volrend", 128, scale, tile*4, tile*8)
	if err != nil {
		return nil, err
	}
	in.n = n
	in.nz = n / 2

	// The run-length-encoded volume, stored ray-major so an axis-aligned
	// ray reads contiguously; read-only data, distributed round-robin.
	in.volAdr = as.AllocPages(n * n * in.nz)
	as.DistributeRoundRobin(in.volAdr, n*n*in.nz)
	in.head = apputil.NewHead(n, in.nz)

	padQueues := uint64(0)
	balanced := false
	switch version {
	case "orig":
	case "pad":
		padQueues = as.PageSize()
	case "ds4d":
		in.fourD = true
		in.extraPx = 100 // 4-d pixel addressing: two integer divides+mods per access
	case "balanced":
		balanced = true
	case "nosteal":
		balanced = true
		in.steal = false
	default:
		return nil, fmt.Errorf("volrend: unknown version %q", version)
	}

	// Image plane.
	in.img = make([]uint32, n*n)
	pr, pc := apputil.ProcGrid(np)
	if in.fourD {
		m := mem.NewArray4D(as, n, n, n/pr, n/pc, 4, as.PageSize())
		for bi := 0; bi < pr; bi++ {
			for bj := 0; bj < pc; bj++ {
				as.SetHome(m.BlockAddr(bi, bj), int(m.BlockStride()), bi*pc+bj)
			}
		}
		in.imgLay = m
	} else {
		m := mem.NewArray2D(as, n, n, 4)
		as.DistributeRoundRobin(m.Base, m.Size())
		in.imgLay = m
	}

	// Task queues: task t is tile (t%nt, t/nt) of the nt×nt tile grid.
	nt := n / tile
	in.queues = make([]*apputil.TaskQueue, np)
	for q := 0; q < np; q++ {
		in.queues[q] = apputil.NewTaskQueue(as, q, apputil.QueueOptions{
			Capacity: nt * nt, EntryBytes: 16, PadEntriesTo: padQueues, LockID: 100 + q,
		})
	}
	assign := make([][]int, np)
	if balanced {
		// Many small pieces dealt round-robin across processors: one
		// tile-row (a few tiles) per piece. Interleaving samples the
		// whole image so every processor gets a fair mix of cheap and
		// expensive rays, and a piece's pixels stay row-contiguous.
		for ty := 0; ty < nt; ty++ {
			owner := ty % np
			for tx := 0; tx < nt; tx++ {
				assign[owner] = append(assign[owner], ty*nt+tx)
			}
		}
	} else {
		// Contiguous blocks of tiles, one per processor. Block boundaries
		// are ceil-split (pi*nt/pr) so remainder tile rows/columns are
		// still assigned when the processor grid does not divide the tile
		// grid; with divisible dimensions this is the same blocked
		// partition as before.
		for id := 0; id < np; id++ {
			pi, pj := id/pc, id%pc
			for ty := pi * nt / pr; ty < (pi+1)*nt/pr; ty++ {
				for tx := pj * nt / pc; tx < (pj+1)*nt/pc; tx++ {
					assign[id] = append(assign[id], ty*nt+tx)
				}
			}
		}
	}
	for q := 0; q < np; q++ {
		in.queues[q].Reset(assign[q])
	}
	in.assign = assign
	return in, nil
}

// castRay composites the ray for pixel (px, py); it returns the pixel value
// and the number of voxels marched (0 when empty-space skipping rejects the
// whole ray). A ray the octree admits marches from z = 0 until its opacity
// saturates or it leaves the volume. Empty voxels leave acc and alpha
// unchanged, so the march only composites the column's nonzero span and
// counts the empty voxels before it (and after it, if the ray gets through).
func castRay(h *apputil.Head, n, nz, px, py int) (uint32, int) {
	cx, cy := float64(n)/2, float64(n)/2
	dx, dy := float64(px)-cx, float64(py)-cy
	r := 0.45 * float64(n)
	if dx*dx+dy*dy > r*r {
		return 0, 0 // octree: fully empty column
	}
	var acc, alpha float64
	steps, vox := h.Column(px, py)
	for _, v := range vox {
		steps++
		d := float64(v) / 255
		a := d * 0.05
		acc += (1 - alpha) * a * d * 255
		alpha += (1 - alpha) * a
		if alpha > maxAlpha {
			return uint32(acc), steps
		}
	}
	return uint32(acc), nz
}

// renderTile runs one task: casts the rays of a tile, issuing the simulated
// volume reads and image writes.
func (in *instance) renderTile(p *sim.Proc, t int) {
	nt := in.n / tile
	x0, y0 := (t%nt)*tile, (t/nt)*tile
	for py := y0; py < y0+tile; py++ {
		for px := x0; px < x0+tile; px++ {
			v, steps := castRay(in.head, in.n, in.nz, px, py)
			in.img[py*in.n+px] = v
			if steps > 0 {
				p.ReadRange(in.volAdr+uint64((py*in.n+px)*in.nz), steps)
				p.Compute(uint64(steps * voxelCost))
			}
			p.Compute(pixelSetup + in.extraPx)
		}
		// The tile row's pixels are contiguous in the image layout.
		p.WriteRange(in.imgLay.Addr(py, x0), tile*4)
	}
}

// Body implements core.Instance: a short frame sequence, each frame rendered
// from per-processor task queues with optional stealing.
func (in *instance) Body(p *sim.Proc) {
	id := p.ID()
	p.Barrier()
	for f := 0; f < frames; f++ {
		if f > 0 {
			in.queues[id].Refill(p, in.assign[id])
			p.Barrier()
		}
		// Drain own queue.
		for {
			t, ok := in.queues[id].Dequeue(p)
			if !ok {
				break
			}
			in.renderTile(p, t)
			p.CountTask(false)
		}
		// Steal from victims round-robin. Every attempt pays the real
		// cost: the victim's queue must be locked just to look, and
		// the lock's critical section is dilated by remote faults on
		// the queue pages — the paper's key observation about
		// stealing on SVM.
		if in.steal {
			for {
				got := false
				for off := 1; off < in.np; off++ {
					victim := (id + off) % in.np
					if !in.queues[victim].Peek(p) {
						continue // unlocked emptiness test
					}
					t, ok := in.queues[victim].Dequeue(p)
					if !ok {
						continue
					}
					in.renderTile(p, t)
					p.CountTask(true)
					got = true
				}
				if !got {
					break
				}
			}
		}
		p.Barrier()
	}
}

// Verify implements core.Instance: it recasts every ray and compares the
// result with the rendered image.
func (in *instance) Verify() error {
	for i, got := range in.img {
		if want, _ := castRay(in.head, in.n, in.nz, i%in.n, i/in.n); got != want {
			return fmt.Errorf("volrend: pixel %d = %d, want %d", i, got, want)
		}
	}
	return nil
}
