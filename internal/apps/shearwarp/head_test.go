package shearwarp

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/apps/apputil"
	"repro/internal/mem"
	"repro/internal/platform"
)

// denseVolume materializes h as the n×n×nz ray-major volume the renderer
// addresses.
func denseVolume(h *apputil.Head, n, nz int) []uint8 {
	vol := make([]uint8, n*n*nz)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			lo, vox := h.Column(x, y)
			copy(vol[(y*n+x)*nz+lo:], vox)
		}
	}
	return vol
}

// denseRLEScan and denseCompositeRow march every voxel of a dense volume:
// the scanline walks the span-based versions must reproduce.
func denseRLEScan(vol []uint8, n, nz, y int) (nvox, runs int) {
	inRun := false
	for x := 0; x < n; x++ {
		for z := 0; z < nz; z++ {
			if vol[(y*n+x)*nz+z] != 0 {
				nvox++
				if !inRun {
					runs++
					inRun = true
				}
			} else {
				inRun = false
			}
		}
	}
	return nvox, runs
}

func denseCompositeRow(vol []uint8, n, nz, y int, out []float64) {
	for x := 0; x < n; x++ {
		var acc, alpha float64
		base := (y*n + x) * nz
		for z := 0; z < nz; z++ {
			d := float64(vol[base+z]) / 255
			if d == 0 {
				continue
			}
			a := d * 0.05
			acc += (1 - alpha) * a * d * 255
			alpha += (1 - alpha) * a
			if alpha > 0.95 {
				break
			}
		}
		out[x] = acc
	}
}

func TestScanlineWalksMatchDenseMarch(t *testing.T) {
	for _, sz := range []struct{ n, nz int }{{36, 19}, {128, 64}} {
		t.Run(fmt.Sprintf("n%d_nz%d", sz.n, sz.nz), func(t *testing.T) {
			n, nz := sz.n, sz.nz
			h := apputil.NewHead(n, nz)
			vol := denseVolume(h, n, nz)
			got, want := make([]float64, n), make([]float64, n)
			for y := 0; y < n; y++ {
				gv, gr := rleScan(h, n, nz, y)
				wv, wr := denseRLEScan(vol, n, nz, y)
				if gv != wv || gr != wr {
					t.Fatalf("scanline %d: rleScan = (%d voxels, %d runs), dense march (%d, %d)", y, gv, gr, wv, wr)
				}
				compositeRow(h, n, y, got)
				denseCompositeRow(vol, n, nz, y, want)
				for x := range got {
					if got[x] != want[x] {
						t.Fatalf("pixel (%d,%d) = %v, dense march %v", x, y, got[x], want[x])
					}
				}
			}
		})
	}
}

// TestBuildDoesNotMaterializeVolume guards against a dense head volume
// coming back: the P=128 build (n=512) must allocate well under the dense
// volume's n·n·nz bytes.
func TestBuildDoesNotMaterializeVolume(t *testing.T) {
	const np = 128
	as := mem.NewAddressSpace(platform.PageSize, np)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	built, err := app{}.Build("opt", 0.25, as, np)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	in := built.(*instance)
	if in.n != 512 {
		t.Fatalf("n = %d, want 512", in.n)
	}
	alloc, dense := after.TotalAlloc-before.TotalAlloc, uint64(in.n*in.n*in.nz)
	if alloc >= dense/8 {
		t.Errorf("Build allocated %d bytes, want under 1/8 of the %d-byte dense volume", alloc, dense)
	}
}

// TestBuildsOwnTheirHead pins that every instance builds its own head: two
// cells built at once share none, and under -race a head cache filled
// lazily across cells would show as a race.
func TestBuildsOwnTheirHead(t *testing.T) {
	ins := make([]*instance, 2)
	var wg sync.WaitGroup
	for i := range ins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			built, err := app{}.Build("opt", 0.25, mem.NewAddressSpace(platform.PageSize, 2), 2)
			if err != nil {
				t.Error(err)
				return
			}
			ins[i] = built.(*instance)
		}()
	}
	wg.Wait()
	if ins[0] != nil && ins[1] != nil && ins[0].head == ins[1].head {
		t.Error("two instances share one head")
	}
}
