package apputil

import (
	"fmt"
	"testing"
)

// fillHead is the dense CT-head fill the renderers used before Head: the
// oracle Head must reproduce voxel for voxel.
func fillHead(vol []uint8, n, nz int) {
	cx, cy, cz := float64(n)/2, float64(n)/2, float64(nz)/2
	r := 0.45 * float64(n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			for z := 0; z < nz; z++ {
				dx, dy, dz := float64(x)-cx, float64(y)-cy, (float64(z)-cz)*2
				d2 := dx*dx + dy*dy + dz*dz
				if d2 > r*r {
					continue
				}
				// Shells: alternating dense / sparse bands.
				band := int(d2/(r*r)*8) % 3
				switch band {
				case 0:
					vol[(y*n+x)*nz+z] = 200
				case 1:
					vol[(y*n+x)*nz+z] = 40
				default:
					vol[(y*n+x)*nz+z] = 90
				}
			}
		}
	}
}

// TestHeadMatchesDenseFill checks every voxel of Head against the dense
// fill, including odd nz (half-integer z centre) and odd n (half-integer
// x/y centre), and that every stored span is contiguous and nonzero: the
// voxels inside it are all set and the voxels outside it are all empty.
func TestHeadMatchesDenseFill(t *testing.T) {
	for _, n := range []int{4, 6, 7, 10, 32, 36, 100, 128, 256} {
		for _, nz := range []int{n / 2, n/2 + 1} {
			t.Run(fmt.Sprintf("n%d_nz%d", n, nz), func(t *testing.T) {
				dense := make([]uint8, n*n*nz)
				fillHead(dense, n, nz)
				h := NewHead(n, nz)
				occupied := 0
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						lo, vox := h.Column(x, y)
						if len(vox) > 0 {
							occupied++
						}
						for z := 0; z < nz; z++ {
							want := dense[(y*n+x)*nz+z]
							inSpan := z >= lo && z < lo+len(vox)
							got := uint8(0)
							if inSpan {
								got = vox[z-lo]
								if got == 0 {
									t.Fatalf("column (%d,%d): zero voxel at z=%d inside span [%d,%d)", x, y, z, lo, lo+len(vox))
								}
							}
							if got != want {
								t.Fatalf("voxel (%d,%d,%d) = %d, want %d", x, y, z, got, want)
							}
						}
					}
				}
				if n >= 6 && occupied == 0 {
					t.Fatal("no occupied column")
				}
			})
		}
	}
}

// TestHeadSharesEqualKeyColumns pins the storage claim: columns with the
// same distance from the axis share one span, so the voxel bytes stay far
// below the dense volume.
func TestHeadSharesEqualKeyColumns(t *testing.T) {
	n, nz := 512, 256
	h := NewHead(n, nz)
	if got, dense := len(h.vox), n*n*nz; got*16 > dense {
		t.Errorf("head holds %d voxel bytes, want under 1/16 of the %d-byte dense volume", got, dense)
	}
	// (3,4) and (5,0) from the centre: 9+16 = 25+0.
	_, a := h.Column(n/2+3, n/2+4)
	_, b := h.Column(n/2+5, n/2)
	if len(a) == 0 || &a[0] != &b[0] {
		t.Error("columns with equal keys do not share their span")
	}
}

func TestProcGrid(t *testing.T) {
	for _, c := range []struct{ np, pr, pc int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {6, 3, 2}, {8, 2, 4}, {12, 4, 3}, {16, 4, 4}, {128, 8, 16},
	} {
		if pr, pc := ProcGrid(c.np); pr != c.pr || pc != c.pc {
			t.Errorf("ProcGrid(%d) = %d×%d, want %d×%d", c.np, pr, pc, c.pr, c.pc)
		}
	}
}

// ProcGridFloor differs from ProcGrid exactly at np = k(k+1).
func TestProcGridFloor(t *testing.T) {
	for _, c := range []struct{ np, pr, pc int }{
		{1, 1, 1}, {2, 1, 2}, {3, 1, 3}, {4, 2, 2}, {6, 2, 3}, {8, 2, 4}, {12, 3, 4}, {16, 4, 4}, {128, 8, 16},
	} {
		if pr, pc := ProcGridFloor(c.np); pr != c.pr || pc != c.pc {
			t.Errorf("ProcGridFloor(%d) = %d×%d, want %d×%d", c.np, pr, pc, c.pr, c.pc)
		}
	}
}
