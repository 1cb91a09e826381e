// Package raytrace reimplements the memory behaviour of SPLASH-2 Raytrace
// (paper §2.2.2, §4.2.3): a recursive ray tracer over an irregular scene
// with round-robin tile assignment, per-processor task queues, and task
// stealing. The scene is a procedural stand-in for the paper's "car" data
// set: a thousand spheres grouped under bounding volumes, so ray cost is
// irregular and unpredictable.
//
// The original SPLASH-2 code keeps global program statistics behind a lock
// acquired roughly once per ray — irrelevant on hardware cache coherence,
// catastrophic on SVM ("the performance jumps from a speedup of 0.5 to 11.05
// by simply eliminating this lock").
//
// Versions:
//
//   - orig:   global statistics lock taken once per primary ray;
//   - nolock: the lock removed (statistics kept per-processor) — the
//     paper's trivial, decisive fix;
//   - splitq: additionally, each processor's task queue is split into a
//     lock-free local queue and a locked public queue for stealing, with
//     tasks moved between them (the paper's final 11.72 version).
//
// Processor 0 reads the scene in from the (untimed) input file, so it starts
// with copies of the scene pages — the data-access-induced imbalance the
// paper observes in its optimized version (Figure 12).
package raytrace

import (
	"fmt"
	"math"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

const (
	tile       = 8
	nGroups    = 64
	perGroup   = 16
	groupCost  = 20  // cycles per bounding-volume test
	sphereCost = 40  // cycles per sphere intersection test
	shadeCost  = 200 // cycles per hit shaded
	maxDepth   = 2   // reflection bounces
)

type app struct{}

func init() { core.Register(app{}) }

// Name implements core.App.
func (app) Name() string { return "raytrace" }

// Versions implements core.App.
func (app) Versions() []core.Version {
	return []core.Version{
		{Name: "orig", Class: core.Orig, Desc: "global statistics lock once per ray"},
		{Name: "nolock", Class: core.Alg, Desc: "statistics lock eliminated"},
		{Name: "splitq", Class: core.Alg, Desc: "split local/steal task queues"},
	}
}

type vec struct{ x, y, z float64 }

func (a vec) sub(b vec) vec       { return vec{a.x - b.x, a.y - b.y, a.z - b.z} }
func (a vec) add(b vec) vec       { return vec{a.x + b.x, a.y + b.y, a.z + b.z} }
func (a vec) scale(s float64) vec { return vec{a.x * s, a.y * s, a.z * s} }
func (a vec) dot(b vec) float64   { return a.x*b.x + a.y*b.y + a.z*b.z }
func (a vec) norm() vec {
	l := math.Sqrt(a.dot(a))
	if l == 0 {
		return a
	}
	return a.scale(1 / l)
}

type sphere struct {
	c    vec
	r    float64
	refl float64 // reflectivity
	col  float64 // base intensity
}

type group struct {
	c     vec
	r     float64
	first int
	count int
}

type instance struct {
	n, np    int
	statLock bool
	splitQ   bool

	spheres []sphere
	groups  []group
	sphAdr  uint64 // 128 B per sphere record
	grpAdr  uint64 // 32 B per group record
	statAdr uint64

	img    []float64
	imgLay *mem.Array2D
	ref    []float64

	public []*apputil.TaskQueue
	local  []*apputil.TaskQueue
	assign [][]int

	statRays uint64
}

// Build implements core.App.
func (app) Build(version string, scale float64, as *mem.AddressSpace, np int) (core.Instance, error) {
	in := &instance{np: np}
	switch version {
	case "orig":
		in.statLock = true
	case "nolock":
	case "splitq":
		in.splitQ = true
	default:
		return nil, fmt.Errorf("raytrace: unknown version %q", version)
	}
	n, err := apputil.Size("raytrace", 128, scale, tile*2, tile*4)
	if err != nil {
		return nil, err
	}
	in.n = n

	// Procedural scene: clusters of spheres over a ground region.
	rng := apputil.NewRNG(2025)
	in.groups = make([]group, nGroups)
	in.spheres = make([]sphere, 0, nGroups*perGroup)
	for g := 0; g < nGroups; g++ {
		gc := vec{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*0.8 + 0.4}
		gr := 0.08 + rng.Float64()*0.12
		in.groups[g] = group{c: gc, r: gr * 2.2, first: len(in.spheres), count: perGroup}
		for s := 0; s < perGroup; s++ {
			sc := gc.add(vec{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*2 - 1}.scale(gr))
			in.spheres = append(in.spheres, sphere{
				c: sc, r: gr * (0.2 + 0.3*rng.Float64()),
				refl: 0.4 * rng.Float64(), col: 0.3 + 0.7*rng.Float64(),
			})
		}
	}
	in.sphAdr = as.AllocPages(len(in.spheres) * 128)
	in.grpAdr = as.Alloc(nGroups * 32)
	as.DistributeRoundRobin(in.sphAdr, len(in.spheres)*128)
	in.statAdr = as.Alloc(64)

	m := mem.NewArray2D(as, n, n, 8)
	as.DistributeRoundRobin(m.Base, m.Size())
	in.imgLay = m
	in.img = make([]float64, n*n)

	// Round-robin tile assignment (Raytrace starts this way, §4.2.3).
	nt := n / tile
	in.assign = make([][]int, np)
	for t := 0; t < nt*nt; t++ {
		in.assign[t%np] = append(in.assign[t%np], t)
	}
	in.public = make([]*apputil.TaskQueue, np)
	in.local = make([]*apputil.TaskQueue, np)
	for q := 0; q < np; q++ {
		in.public[q] = apputil.NewTaskQueue(as, q, apputil.QueueOptions{
			Capacity: nt * nt, EntryBytes: 16, LockID: 200 + q,
		})
		in.local[q] = apputil.NewTaskQueue(as, q, apputil.QueueOptions{
			Capacity: nt * nt, EntryBytes: 16, LockID: -1,
		})
		if in.splitQ {
			// A quarter of the tasks are published for stealing;
			// the rest stay in the lock-free local queue.
			cut := len(in.assign[q]) / 4
			in.public[q].Reset(in.assign[q][:cut])
			in.local[q].Reset(in.assign[q][cut:])
		} else {
			in.public[q].Reset(in.assign[q])
		}
	}

	in.ref = make([]float64, n*n)
	for py := 0; py < n; py++ {
		for px := 0; px < n; px++ {
			o, d := in.primary(px, py)
			in.ref[py*n+px] = in.shade(nil, o, d, maxDepth)
		}
	}
	return in, nil
}

// primary builds the orthographic primary ray for a pixel.
func (in *instance) primary(px, py int) (vec, vec) {
	o := vec{float64(px)/float64(in.n)*2 - 1, float64(py)/float64(in.n)*2 - 1, -2}
	return o, vec{0, 0, 1}
}

// intersect finds the nearest sphere hit; when p is non-nil it issues the
// simulated scene reads (group records, then sphere records of hit groups).
func (in *instance) intersect(p *sim.Proc, o, d vec) (int, float64) {
	best, bestT := -1, math.Inf(1)
	var work uint64
	for gi := range in.groups {
		g := &in.groups[gi]
		if p != nil {
			p.ReadRange(in.grpAdr+uint64(gi)*32, 32)
		}
		work += groupCost
		if !hitSphere(o, d, g.c, g.r) {
			continue
		}
		for si := g.first; si < g.first+g.count; si++ {
			s := &in.spheres[si]
			if p != nil {
				p.ReadRange(in.sphAdr+uint64(si)*128, 64)
			}
			work += sphereCost
			if t, ok := sphereT(o, d, s); ok && t < bestT {
				bestT, best = t, si
			}
		}
	}
	if p != nil {
		p.Compute(work)
	}
	return best, bestT
}

func hitSphere(o, d, c vec, r float64) bool {
	oc := o.sub(c)
	b := oc.dot(d)
	return b*b-oc.dot(oc)+r*r >= 0
}

func sphereT(o, d vec, s *sphere) (float64, bool) {
	oc := o.sub(s.c)
	b := oc.dot(d)
	disc := b*b - oc.dot(oc) + s.r*s.r
	if disc < 0 {
		return 0, false
	}
	t := -b - math.Sqrt(disc)
	if t < 1e-9 {
		return 0, false
	}
	return t, true
}

var light = vec{3, -4, -5}

// shade traces a ray and returns its intensity, recursing for reflections
// and casting a shadow ray per hit.
func (in *instance) shade(p *sim.Proc, o, d vec, depth int) float64 {
	oo, dd := o, d
	si, t := in.intersect(p, oo, dd)
	if si < 0 {
		return 0.05 // background
	}
	s := &in.spheres[si]
	hit := oo.add(dd.scale(t))
	nrm := hit.sub(s.c).norm()
	ldir := light.sub(hit).norm()
	if p != nil {
		p.Compute(shadeCost)
	}
	// Shadow ray.
	lum := 0.1
	if shadowIdx, _ := in.intersect(p, hit.add(nrm.scale(1e-6)), ldir); shadowIdx < 0 {
		if diff := nrm.dot(ldir); diff > 0 {
			lum += s.col * diff
		}
	}
	// Reflection.
	if depth > 0 && s.refl > 0.05 {
		rd := dd.sub(nrm.scale(2 * dd.dot(nrm)))
		lum += s.refl * in.shade(p, hit.add(nrm.scale(1e-6)), rd, depth-1)
	}
	return lum
}

func (in *instance) renderTile(p *sim.Proc, t int) {
	nt := in.n / tile
	x0, y0 := (t%nt)*tile, (t/nt)*tile
	for py := y0; py < y0+tile; py++ {
		for px := x0; px < x0+tile; px++ {
			o, d := in.primary(px, py)
			in.img[py*in.n+px] = in.shade(p, o, d, maxDepth)
			if in.statLock {
				// The paper's killer: global statistics updated
				// under a lock once per ray.
				p.Lock(9)
				p.Read(in.statAdr)
				in.statRays++
				p.Write(in.statAdr)
				p.Unlock(9)
			}
		}
		p.WriteRange(in.imgLay.Addr(py, x0), tile*8)
	}
}

// Body implements core.Instance.
func (in *instance) Body(p *sim.Proc) {
	id := p.ID()
	if id == 0 {
		// Processor 0 read the scene from the input file during
		// untimed initialization, so it already holds those pages.
		sim.WarmPages(p.Kernel(), in.sphAdr, len(in.spheres)*128, 0)
		sim.WarmPages(p.Kernel(), in.grpAdr, nGroups*32, 0)
	}
	p.Barrier()
	localDrained := false
	for {
		// Lock-free local queue first (splitq), replenishing the
		// public queue when thieves have emptied it.
		if in.splitQ && !localDrained {
			if in.public[id].Len() == 0 && in.local[id].Len() > 2 {
				in.local[id].StealHalf(p, in.public[id])
				continue
			}
			if t, ok := in.local[id].Dequeue(p); ok {
				in.renderTile(p, t)
				p.CountTask(false)
				continue
			}
			localDrained = true
		}
		if t, ok := in.public[id].Dequeue(p); ok {
			in.renderTile(p, t)
			p.CountTask(false)
			continue
		}
		break
	}
	// Steal from other public queues.
	for {
		got := false
		for off := 1; off < in.np; off++ {
			victim := (id + off) % in.np
			if !in.public[victim].Peek(p) {
				continue
			}
			t, ok := in.public[victim].Dequeue(p)
			if !ok {
				continue
			}
			in.renderTile(p, t)
			p.CountTask(true)
			got = true
		}
		if !got {
			if in.splitQ && in.anyLocalLeft() {
				// Owners still hold unpublished local work and
				// will republish; spin briefly and retry.
				p.Compute(1000)
				continue
			}
			break
		}
	}
	p.Barrier()
}

// anyLocalLeft reports whether any processor still holds unpublished tasks
// (host-side control check mirroring the shared work counter).
func (in *instance) anyLocalLeft() bool {
	for _, q := range in.local {
		if q.Len() > 0 {
			return true
		}
	}
	return false
}

// Verify implements core.Instance.
func (in *instance) Verify() error {
	for i := range in.img {
		if math.Abs(in.img[i]-in.ref[i]) > 1e-12 {
			return fmt.Errorf("raytrace: pixel %d = %g, want %g", i, in.img[i], in.ref[i])
		}
	}
	return nil
}
