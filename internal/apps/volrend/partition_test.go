package volrend

import (
	"testing"

	"repro/internal/mem"
)

// Regression: the blocked tile partition truncated with nt/pr x nt/pc sized
// blocks, so processor counts whose grid does not divide the tile grid left
// the remainder tile rows/columns unassigned — those pixels were never
// rendered and Verify failed. Every tile must be assigned exactly once for
// any processor count.
func TestBlockedPartitionCoversAllTiles(t *testing.T) {
	for _, np := range []int{1, 2, 3, 5, 7, 8, 16} {
		as := mem.NewAddressSpace(4096, np)
		built, err := app{}.Build("orig", 0.25, as, np)
		if err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
		in := built.(*instance)
		nt := in.n / tile
		seen := make([]int, nt*nt)
		for id := range in.assign {
			for _, ti := range in.assign[id] {
				seen[ti]++
			}
		}
		for ti, n := range seen {
			if n != 1 {
				t.Fatalf("np=%d: tile %d assigned %d times, want exactly once", np, ti, n)
			}
		}
	}
}
