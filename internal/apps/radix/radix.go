// Package radix reimplements the SPLASH-2 parallel radix sort (paper §2.2.2,
// §4.2.5). Keys are sorted by repeated stable counting passes over digits.
// The permutation phase writes each key to its globally-computed destination
// slot — writes that are scattered and unpredictable, producing the massive
// page-grained false sharing the paper describes.
//
// Versions:
//
//   - orig:  permutation writes directly into the shared destination array;
//   - pad:   per-processor histogram rows padded to pages (P/A; the paper
//     finds it has little impact because the permutation is untouched);
//   - local: the SPLASH-2 [18] optimization — each processor gathers its
//     output into a local buffer and then copies consecutive runs into the
//     shared array, making remote writes less scattered (Alg class; helps,
//     "but it is still terrible").
package radix

import (
	"fmt"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

// The paper sorts 4M integers with radix 1024, giving output runs of
// N/radix = 4096 keys (16 KB, four pages) per bucket. We keep that ratio at
// scaled-down key counts by using radix 256: at the default 256K keys a
// bucket's output region is 1K keys (one page), and at scale 2+ it spans
// multiple pages — the regime where the local-gather optimization starts to
// reduce the number of writers per page, as in the paper.
const (
	radixBits = 8
	radix     = 1 << radixBits
	keyBits   = 16
	passes    = keyBits / radixBits
)

type app struct{}

func init() { core.Register(app{}) }

// Name implements core.App.
func (app) Name() string { return "radix" }

// Versions implements core.App.
func (app) Versions() []core.Version {
	return []core.Version{
		{Name: "orig", Class: core.Orig, Desc: "scattered permutation writes to the shared array"},
		{Name: "pad", Class: core.PA, Desc: "histograms padded to pages"},
		{Name: "local", Class: core.Alg, Desc: "gather into a local buffer, then copy contiguous runs"},
	}
}

type instance struct {
	n, np   int
	local   bool
	keys    []uint32
	scratch []uint32
	// inputSum is the input keys' checksum. Verify takes a sorted output
	// with the same checksum as a permutation of the input.
	inputSum uint64
	hist     [][]int // [proc][radix]

	srcAdr, dstAdr uint64 // simulated base addresses (swapped per pass)
	histAdr        uint64
	histStride     uint64   // bytes per proc histogram row
	bufAdr         []uint64 // per-proc local gather buffers (local version)
}

// Build implements core.App.
func (app) Build(version string, scale float64, as *mem.AddressSpace, np int) (core.Instance, error) {
	n, err := apputil.Size("radix", 256*1024, scale, 1, np*radix)
	if err != nil {
		return nil, err
	}
	in := &instance{n: n, np: np}

	switch version {
	case "orig":
		in.histStride = radix * 4
	case "pad":
		in.histStride = (radix*4 + as.PageSize() - 1) &^ (as.PageSize() - 1)
	case "local":
		in.histStride = radix * 4
		in.local = true
	default:
		return nil, fmt.Errorf("radix: unknown version %q", version)
	}

	in.srcAdr = as.AllocPages(n * 4)
	in.dstAdr = as.AllocPages(n * 4)
	// Key chunks are distributed blocked so each processor's input is
	// local, as SPLASH-2 suggests.
	for id := 0; id < np; id++ {
		lo, hi := apputil.Split(n, np, id)
		as.SetHome(in.srcAdr+uint64(lo)*4, (hi-lo)*4, id)
		as.SetHome(in.dstAdr+uint64(lo)*4, (hi-lo)*4, id)
	}
	in.histAdr = as.AllocPages(np * int(in.histStride))
	for id := 0; id < np; id++ {
		as.SetHome(in.histAdr+uint64(id)*in.histStride, int(in.histStride), id)
	}
	if in.local {
		in.bufAdr = make([]uint64, np)
		for id := 0; id < np; id++ {
			lo, hi := apputil.Split(n, np, id)
			in.bufAdr[id] = as.AllocPages((hi - lo) * 4)
			as.SetHome(in.bufAdr[id], (hi-lo)*4, id)
		}
	}

	rng := apputil.NewRNG(424242)
	in.keys = make([]uint32, n)
	for i := range in.keys {
		in.keys[i] = uint32(rng.Uint64() & (1<<keyBits - 1))
	}
	in.inputSum = checksum(in.keys)
	in.scratch = make([]uint32, n)
	in.hist = make([][]int, np)
	for i := range in.hist {
		in.hist[i] = make([]int, radix)
	}
	return in, nil
}

// Body implements core.Instance.
func (in *instance) Body(p *sim.Proc) {
	id := p.ID()
	lo, hi := apputil.Split(in.n, in.np, id)
	src, dst := in.keys, in.scratch
	srcA, dstA := in.srcAdr, in.dstAdr
	// Per-processor work arrays, reused by every pass; buf is the local
	// version's gather buffer.
	offs := make([]int, radix)
	var bucketStart, fill []int
	var buf []uint32
	if in.local {
		bucketStart = make([]int, radix)
		buf = make([]uint32, hi-lo)
	}

	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * radixBits)

		// Phase 1: local histogram over the processor's chunk.
		h := in.hist[id]
		for r := range h {
			h[r] = 0
		}
		p.ReadRange(srcA+uint64(lo)*4, (hi-lo)*4)
		for i := lo; i < hi; i++ {
			h[(src[i]>>shift)&(radix-1)]++
		}
		p.Compute(uint64(2 * (hi - lo)))
		p.WriteRange(in.histAdr+uint64(id)*in.histStride, radix*4)
		p.Barrier()

		// Phase 2: every processor reads all histograms and computes
		// the write offsets for its own chunk.
		for q := 0; q < in.np; q++ {
			p.ReadRange(in.histAdr+uint64(q)*in.histStride, radix*4)
		}
		p.Compute(uint64(2 * radix * in.np))
		base := 0
		for r := 0; r < radix; r++ {
			mine := base
			for q := 0; q < id; q++ {
				mine += in.hist[q][r]
			}
			offs[r] = mine
			for q := 0; q < in.np; q++ {
				base += in.hist[q][r]
			}
		}
		p.Barrier()

		// Phase 3: permutation.
		if in.local {
			// Gather into the local buffer first: all writes are
			// local, then copy contiguous runs per bucket into the
			// shared array.
			c := 0
			for r := 0; r < radix; r++ {
				bucketStart[r] = c
				c += h[r]
			}
			// One sequential pass building the buffer (simulated
			// as local contiguous writes).
			fill = append(fill[:0], bucketStart...)
			p.ReadRange(srcA+uint64(lo)*4, (hi-lo)*4)
			for i := lo; i < hi; i++ {
				r := (src[i] >> shift) & (radix - 1)
				buf[fill[r]] = src[i]
				fill[r]++
			}
			p.WriteRange(in.bufAdr[id], (hi-lo)*4)
			p.Compute(uint64(4 * (hi - lo)))
			// Copy each bucket's run to its global slot. Buckets
			// are visited starting at a processor-specific offset
			// so the processors do not convoy on the same home
			// nodes.
			for rr := 0; rr < radix; rr++ {
				r := (rr + id*radix/in.np) % radix
				cnt := fill[r] - bucketStart[r]
				if cnt == 0 {
					continue
				}
				p.ReadRange(in.bufAdr[id]+uint64(bucketStart[r])*4, cnt*4)
				p.WriteRange(dstA+uint64(offs[r])*4, cnt*4)
				copy(dst[offs[r]:offs[r]+cnt], buf[bucketStart[r]:fill[r]])
			}
			p.Compute(uint64(hi - lo))
		} else {
			// Scattered remote writes, one per key.
			for i := lo; i < hi; i++ {
				r := (src[i] >> shift) & (radix - 1)
				dst[offs[r]] = src[i]
				p.Write(dstA + uint64(offs[r])*4)
				offs[r]++
			}
			p.Compute(uint64(3 * (hi - lo)))
		}
		p.Barrier()

		src, dst = dst, src
		srcA, dstA = dstA, srcA
	}
}

// Verify implements core.Instance.
func (in *instance) Verify() error {
	// passes is even, so the final sorted data is back in in.keys.
	out := in.keys
	if passes%2 == 1 {
		out = in.scratch
	}
	for i := 1; i < len(out); i++ {
		if out[i-1] > out[i] {
			return fmt.Errorf("radix: out of order at %d: %d > %d", i, out[i-1], out[i])
		}
	}
	if checksum(out) != in.inputSum {
		return fmt.Errorf("radix: output is not a permutation of the input")
	}
	return nil
}

// checksum is Σ k²+31k over keys, the same for every permutation of them.
func checksum(keys []uint32) uint64 {
	var sum uint64
	for _, k := range keys {
		v := uint64(k)
		sum += v*v + v*31
	}
	return sum
}
