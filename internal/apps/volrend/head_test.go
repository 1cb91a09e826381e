package volrend

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/apps/apputil"
	"repro/internal/mem"
	"repro/internal/platform"
)

// denseCastRay marches a dense n×n×nz ray-major volume from z = 0, counting
// every voxel: the ray walk castRay must reproduce.
func denseCastRay(vol []uint8, n, nz, px, py int) (uint32, int) {
	cx, cy := float64(n)/2, float64(n)/2
	dx, dy := float64(px)-cx, float64(py)-cy
	r := 0.45 * float64(n)
	if dx*dx+dy*dy > r*r {
		return 0, 0
	}
	var acc, alpha float64
	steps := 0
	base := (py*n + px) * nz
	for z := 0; z < nz; z++ {
		steps++
		d := float64(vol[base+z]) / 255
		a := d * 0.05
		acc += (1 - alpha) * a * d * 255
		alpha += (1 - alpha) * a
		if alpha > maxAlpha {
			break
		}
	}
	return uint32(acc), steps
}

func TestCastRayMatchesDenseMarch(t *testing.T) {
	for _, sz := range []struct{ n, nz int }{{32, 17}, {128, 64}} {
		t.Run(fmt.Sprintf("n%d_nz%d", sz.n, sz.nz), func(t *testing.T) {
			n, nz := sz.n, sz.nz
			h := apputil.NewHead(n, nz)
			vol := make([]uint8, n*n*nz)
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					lo, vox := h.Column(x, y)
					copy(vol[(y*n+x)*nz+lo:], vox)
				}
			}
			for py := 0; py < n; py++ {
				for px := 0; px < n; px++ {
					gv, gs := castRay(h, n, nz, px, py)
					wv, ws := denseCastRay(vol, n, nz, px, py)
					if gv != wv || gs != ws {
						t.Fatalf("pixel (%d,%d): castRay = (%d, %d steps), dense march (%d, %d)", px, py, gv, gs, wv, ws)
					}
				}
			}
		})
	}
}

// TestBuildDoesNotMaterializeVolume guards against a dense head volume
// coming back: the build at the figures' scale (harness.BaseScale, 256×256
// image) must allocate well under the dense volume's n·n·nz bytes.
func TestBuildDoesNotMaterializeVolume(t *testing.T) {
	const np, figuresScale = 16, 2
	as := mem.NewAddressSpace(platform.PageSize, np)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	built, err := app{}.Build("orig", figuresScale, as, np)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	in := built.(*instance)
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
			built, err := app{}.Build("orig", 0.25, mem.NewAddressSpace(platform.PageSize, 2), 2)
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
