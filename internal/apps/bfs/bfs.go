// Package bfs is the second irregular modern workload of ROADMAP item 3:
// level-synchronous breadth-first search over a CSR graph (a ring for
// connectivity plus random long-range edges), restructured along the
// paper's §3 taxonomy. BFS is the canonical irregular-communication
// benchmark: the frontier's neighbor reads scatter across the whole
// distance array with no spatial locality, and the candidate hand-off
// between levels is exactly the kind of fine-grained producer-consumer
// traffic that page-grained SVM amplifies.
//
// Every level runs in two phases separated by barriers so results are
// interleaving-independent: an expand phase that scans the current frontier
// against the stable distance array (no distance is written while any
// processor reads it) and emits candidate vertices, then a claim phase in
// which each vertex's owner — and only its owner — marks its still-unvisited
// candidates with the next level. The distance array is therefore a pure
// function of the graph, identical across platforms, processor counts, and
// versions, and is what the fingerprint hashes.
//
// Versions:
//
//   - orig: per-processor candidate and frontier segments packed
//     back-to-back (false sharing at the seams), distances placed
//     round-robin, and every processor scans every candidate segment to
//     find the vertices it owns;
//   - pad:  P/A — the same structure with every per-processor segment
//     padded out to page boundaries;
//   - part: DS — owner-compute reorganization: expand writes candidates
//     directly into per-(source,owner) outboxes homed at the owner, the
//     claim phase reads only the processor's own inboxes, and the distance
//     array, row pointers, and adjacency are block-distributed so claim
//     writes are home-local;
//   - dir:  Alg — direction-optimizing BFS on the part structure: when the
//     frontier is large, switch bottom-up — each owner scans its own
//     unvisited vertices for a parent at the current level, with an early
//     exit on the first hit and no candidate traffic at all.
package bfs

import (
	"fmt"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

const (
	baseVerts = 2048
	// extraEdges is the number of random long-range edges added per vertex
	// (each lands as two directed arcs) on top of the ring.
	extraEdges = 4
	// bottomUpDivisor: the dir version goes bottom-up when the frontier
	// holds more than numVerts/bottomUpDivisor vertices.
	bottomUpDivisor = 8
)

type app struct{}

func init() { core.RegisterExtension(app{}) }

// Name implements core.App.
func (app) Name() string { return "bfs" }

// Versions implements core.App.
func (app) Versions() []core.Version {
	return []core.Version{
		{Name: "orig", Class: core.Orig, Desc: "packed frontier/candidate segments, round-robin distances, all-scan claim"},
		{Name: "pad", Class: core.PA, Desc: "per-processor segments padded to page boundaries"},
		{Name: "part", Class: core.DS, Desc: "owner-partitioned outboxes and block-distributed graph data"},
		{Name: "dir", Class: core.Alg, Desc: "direction-optimizing traversal (bottom-up on large frontiers)"},
	}
}

type version int

const (
	vOrig version = iota
	vPad
	vPart
	vDir
)

type instance struct {
	ver      version
	np       int
	numVerts int
	row      []int32 // CSR row offsets, numVerts+1
	adj      []int32 // CSR adjacency
	dist     []int32 // live distances, -1 = unvisited; source is vertex 0
	expected []int32 // serial BFS reference, fixed at Build

	rowAdr, adjAdr, distAdr uint64

	// Frontier double buffer: segs[parity][q] is processor q's slice of
	// the frontier being built (claim) or consumed (expand), with its
	// simulated region at segAdr[parity][q]. segCap entries each.
	segs   [2][][]int32
	segAdr [2][]uint64
	segCap int

	// orig/pad: one candidate buffer per expanding processor.
	cand    [][]int32
	candAdr []uint64

	// part/dir: per-(source,owner) outboxes and a count matrix.
	out    [][][]int32
	outAdr [][]uint64
	cntAdr uint64
}

// Build implements core.App.
func (app) Build(versionName string, scale float64, as *mem.AddressSpace, np int) (core.Instance, error) {
	var ver version
	switch versionName {
	case "orig":
		ver = vOrig
	case "pad":
		ver = vPad
	case "part":
		ver = vPart
	case "dir":
		ver = vDir
	default:
		return nil, fmt.Errorf("bfs: unknown version %q", versionName)
	}
	numVerts, err := apputil.Size("bfs", baseVerts, scale, 1, 4*np)
	if err != nil {
		return nil, err
	}
	return newInstance(ver, numVerts, 4242, as, np), nil
}

// newInstance builds a runnable instance over the seeded random graph; the
// property tests call it directly with randomized seeds.
func newInstance(ver version, numVerts int, seed uint64, as *mem.AddressSpace, np int) *instance {
	in := &instance{ver: ver, np: np, numVerts: numVerts}
	in.row, in.adj = generateGraph(numVerts, seed)
	in.dist = make([]int32, numVerts)
	for v := range in.dist {
		in.dist[v] = -1
	}
	in.dist[0] = 0
	in.expected = SerialBFS(in.row, in.adj)

	in.rowAdr = as.AllocPages((numVerts + 1) * 4)
	in.adjAdr = as.AllocPages(len(in.adj) * 4)
	in.distAdr = as.AllocPages(numVerts * 4)
	if in.ver == vPart || in.ver == vDir {
		for q := 0; q < np; q++ {
			lo, hi := apputil.Split(numVerts, np, q)
			if hi == lo {
				continue
			}
			as.SetHome(in.distAdr+uint64(lo)*4, (hi-lo)*4, q)
			as.SetHome(in.rowAdr+uint64(lo)*4, (hi-lo+1)*4, q)
			as.SetHome(in.adjAdr+uint64(in.row[lo])*4, int(in.row[hi]-in.row[lo])*4, q)
		}
	}

	// A processor appends at most one candidate per directed edge it
	// scans, so |edges|+|verts| entries bound every buffer for a level.
	in.segCap = len(in.adj) + numVerts
	alloc := func(parity int) {
		in.segs[parity] = make([][]int32, np)
		in.segAdr[parity] = make([]uint64, np)
		switch in.ver {
		case vOrig:
			base := as.Alloc(np * in.segCap * 4)
			for q := 0; q < np; q++ {
				in.segAdr[parity][q] = base + uint64(q*in.segCap)*4
			}
		default:
			for q := 0; q < np; q++ {
				in.segAdr[parity][q] = as.AllocPages(in.segCap * 4)
				if in.ver == vPart || in.ver == vDir {
					as.SetHome(in.segAdr[parity][q], in.segCap*4, q)
				}
			}
		}
	}
	alloc(0)
	alloc(1)
	in.segs[0][0] = append(in.segs[0][0], 0) // level-0 frontier: the source

	switch in.ver {
	case vOrig, vPad:
		in.cand = make([][]int32, np)
		in.candAdr = make([]uint64, np)
		if in.ver == vOrig {
			base := as.Alloc(np * in.segCap * 4)
			for p := 0; p < np; p++ {
				in.candAdr[p] = base + uint64(p*in.segCap)*4
			}
		} else {
			for p := 0; p < np; p++ {
				in.candAdr[p] = as.AllocPages(in.segCap * 4)
			}
		}
	case vPart, vDir:
		in.out = make([][][]int32, np)
		in.outAdr = make([][]uint64, np)
		in.cntAdr = as.AllocPages(np * np * 8)
		for p := 0; p < np; p++ {
			in.out[p] = make([][]int32, np)
			in.outAdr[p] = make([]uint64, np)
			for q := 0; q < np; q++ {
				// Outbox p->q homed at the owner that drains it.
				in.outAdr[p][q] = as.AllocPages(in.segCap * 4)
				as.SetHome(in.outAdr[p][q], in.segCap*4, q)
			}
		}
	}
	return in
}

// generateGraph builds the undirected test graph in CSR form: a ring for
// connectivity plus extraEdges random long-range edges per vertex.
func generateGraph(numVerts int, seed uint64) (row, adj []int32) {
	rng := apputil.NewRNG(seed)
	deg := make([]int32, numVerts)
	type edge struct{ u, v int32 }
	edges := make([]edge, 0, numVerts*(1+extraEdges))
	addEdge := func(u, v int32) {
		edges = append(edges, edge{u, v})
		deg[u]++
		deg[v]++
	}
	for i := 0; i < numVerts; i++ {
		addEdge(int32(i), int32((i+1)%numVerts))
	}
	for i := 0; i < numVerts*extraEdges; i++ {
		u, v := int32(rng.Intn(numVerts)), int32(rng.Intn(numVerts))
		if u != v {
			addEdge(u, v)
		}
	}
	row = make([]int32, numVerts+1)
	for v := 0; v < numVerts; v++ {
		row[v+1] = row[v] + deg[v]
	}
	adj = make([]int32, row[numVerts])
	next := append([]int32(nil), row[:numVerts]...)
	for _, e := range edges {
		adj[next[e.u]] = e.v
		next[e.u]++
		adj[next[e.v]] = e.u
		next[e.v]++
	}
	return row, adj
}

// SerialBFS computes distances from vertex 0 with a plain sequential
// traversal — the reference Verify and the property tests compare against.
func SerialBFS(row, adj []int32) []int32 {
	dist := make([]int32, len(row)-1)
	for v := range dist {
		dist[v] = -1
	}
	dist[0] = 0
	queue := []int32{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[row[u]:row[u+1]] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// frontierLen totals the current frontier; identical on every processor, so
// the level loop and the dir version's direction choice stay in lockstep.
func (in *instance) frontierLen(parity int) int {
	n := 0
	for _, s := range in.segs[parity] {
		n += len(s)
	}
	return n
}

// readFrontier simulates reading the processor's [lo, hi) chunk of the
// concatenated frontier segments and returns the chunk's vertices.
func (in *instance) readFrontier(p *sim.Proc, parity, lo, hi int) []int32 {
	var chunk []int32
	base := 0
	for q, seg := range in.segs[parity] {
		slo, shi := lo-base, hi-base
		if slo < 0 {
			slo = 0
		}
		if shi > len(seg) {
			shi = len(seg)
		}
		if slo < shi {
			p.ReadRange(in.segAdr[parity][q]+uint64(slo)*4, (shi-slo)*4)
			chunk = append(chunk, seg[slo:shi]...)
		}
		base += len(seg)
	}
	return chunk
}

// Body implements core.Instance.
func (in *instance) Body(p *sim.Proc) {
	id := p.ID()
	olo, ohi := apputil.Split(in.numVerts, in.np, id)
	parity := 0
	for level := int32(0); ; level++ {
		total := in.frontierLen(parity)
		if total == 0 {
			break
		}
		lo, hi := apputil.Split(total, in.np, id)
		bottomUp := in.ver == vDir && total > in.numVerts/bottomUpDivisor

		if !bottomUp {
			chunk := in.readFrontier(p, parity, lo, hi)
			switch in.ver {
			case vOrig, vPad:
				in.expandShared(p, chunk)
			default:
				in.expandPartitioned(p, chunk)
			}
		}
		p.Barrier()

		next := in.segs[1-parity]
		next[id] = next[id][:0]
		switch {
		case bottomUp:
			in.claimBottomUp(p, level, olo, ohi, next)
		case in.ver == vOrig || in.ver == vPad:
			in.claimShared(p, level, olo, ohi, next)
		default:
			in.claimPartitioned(p, level, next)
		}
		if len(next[id]) > 0 {
			p.WriteRange(in.segAdr[1-parity][id], len(next[id])*4)
		}
		p.Barrier()
		parity = 1 - parity
	}
	p.Barrier()
}

// expandShared scans the chunk's adjacency against the stable distance
// array and appends unvisited neighbors to this processor's candidate
// buffer (orig/pad).
func (in *instance) expandShared(p *sim.Proc, chunk []int32) {
	id := p.ID()
	in.cand[id] = in.cand[id][:0]
	for _, u := range chunk {
		p.ReadRange(in.rowAdr+uint64(u)*4, 8)
		r0, r1 := in.row[u], in.row[u+1]
		p.ReadRange(in.adjAdr+uint64(r0)*4, int(r1-r0)*4)
		for _, v := range in.adj[r0:r1] {
			p.Read(in.distAdr + uint64(v)*4)
			p.Compute(2)
			if in.dist[v] < 0 {
				in.cand[id] = append(in.cand[id], v)
			}
		}
		p.Compute(6)
	}
	if len(in.cand[id]) > 0 {
		p.WriteRange(in.candAdr[id], len(in.cand[id])*4)
	}
}

// claimShared has every processor scan every candidate buffer, claiming the
// vertices it owns (orig/pad).
func (in *instance) claimShared(p *sim.Proc, level int32, olo, ohi int, next [][]int32) {
	id := p.ID()
	for src := 0; src < in.np; src++ {
		if len(in.cand[src]) > 0 {
			p.ReadRange(in.candAdr[src], len(in.cand[src])*4)
		}
		for _, v := range in.cand[src] {
			p.Compute(2)
			if int(v) < olo || int(v) >= ohi {
				continue
			}
			p.Read(in.distAdr + uint64(v)*4)
			if in.dist[v] < 0 {
				in.dist[v] = level + 1
				p.Write(in.distAdr + uint64(v)*4)
				next[id] = append(next[id], v)
			}
		}
	}
}

// expandPartitioned scans the chunk and ships each unvisited neighbor
// straight to its owner's outbox (part/dir).
func (in *instance) expandPartitioned(p *sim.Proc, chunk []int32) {
	id := p.ID()
	for q := 0; q < in.np; q++ {
		in.out[id][q] = in.out[id][q][:0]
	}
	for _, u := range chunk {
		p.ReadRange(in.rowAdr+uint64(u)*4, 8)
		r0, r1 := in.row[u], in.row[u+1]
		p.ReadRange(in.adjAdr+uint64(r0)*4, int(r1-r0)*4)
		for _, v := range in.adj[r0:r1] {
			p.Read(in.distAdr + uint64(v)*4)
			p.Compute(2)
			if in.dist[v] < 0 {
				q := in.ownerOf(v)
				in.out[id][q] = append(in.out[id][q], v)
			}
		}
		p.Compute(6)
	}
	for q := 0; q < in.np; q++ {
		if n := len(in.out[id][q]); n > 0 {
			p.WriteRange(in.outAdr[id][q], n*4)
		}
		p.Write(in.cntAdr + uint64(id*in.np+q)*8)
	}
}

// claimPartitioned drains only this processor's own inboxes (part/dir).
func (in *instance) claimPartitioned(p *sim.Proc, level int32, next [][]int32) {
	id := p.ID()
	for src := 0; src < in.np; src++ {
		p.Read(in.cntAdr + uint64(src*in.np+id)*8)
		box := in.out[src][id]
		if len(box) > 0 {
			p.ReadRange(in.outAdr[src][id], len(box)*4)
		}
		for _, v := range box {
			p.Read(in.distAdr + uint64(v)*4)
			p.Compute(2)
			if in.dist[v] < 0 {
				in.dist[v] = level + 1
				p.Write(in.distAdr + uint64(v)*4)
				next[id] = append(next[id], v)
			}
		}
	}
}

// claimBottomUp scans this owner's unvisited vertices for a parent at the
// current level, stopping at the first hit (dir). A concurrent claim can
// only write level+1 into a distance, never level, so the parent test reads
// stable values and the result is interleaving-independent.
func (in *instance) claimBottomUp(p *sim.Proc, level int32, olo, ohi int, next [][]int32) {
	id := p.ID()
	for v := olo; v < ohi; v++ {
		p.Read(in.distAdr + uint64(v)*4)
		if in.dist[v] >= 0 {
			continue
		}
		p.ReadRange(in.rowAdr+uint64(v)*4, 8)
		r0, r1 := in.row[v], in.row[v+1]
		for i := r0; i < r1; i++ {
			u := in.adj[i]
			p.Read(in.adjAdr + uint64(i)*4)
			p.Read(in.distAdr + uint64(u)*4)
			p.Compute(2)
			if in.dist[u] == level {
				in.dist[v] = level + 1
				p.Write(in.distAdr + uint64(v)*4)
				next[id] = append(next[id], int32(v))
				break
			}
		}
		p.Compute(4)
	}
}

// ownerOf returns the processor owning vertex v under the block partition.
func (in *instance) ownerOf(v int32) int {
	for q := 0; q < in.np; q++ {
		lo, hi := apputil.Split(in.numVerts, in.np, q)
		if int(v) >= lo && int(v) < hi {
			return q
		}
	}
	return in.np - 1
}

// Verify implements core.Instance: the computed distances must equal the
// serial traversal's exactly.
func (in *instance) Verify() error {
	for v := range in.dist {
		if in.dist[v] != in.expected[v] {
			return fmt.Errorf("bfs: dist[%d] = %d, serial reference says %d", v, in.dist[v], in.expected[v])
		}
	}
	return nil
}
