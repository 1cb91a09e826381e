package harness

import (
	"runtime"
	"testing"
)

// TestCellAllocationFitsAddressSpace guards the per-cell allocation of a
// cell whose address space is small next to its machine: lu/4da at P=128
// and scale 0.25 spans about 36 KB, so every processor's cache tag arrays
// are sized to that span, not to a full 512 KB or 1 MB L2. The cell
// allocates about 1.1, 1.0 and 0.3 MB on svm, dsm and smp; full-size
// arrays made it 4.7, 4.5 and 2.4 MB.
func TestCellAllocationFitsAddressSpace(t *testing.T) {
	const limit = 2 << 20
	for _, plat := range []string{"svm", "dsm", "smp"} {
		s := Spec{App: "lu", Version: "4da", Platform: plat, NumProcs: 128, Scale: 0.25}
		if _, err := Execute(s); err != nil { // warm-up: one-time set-up is not the cell's
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Execute(s)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= limit {
			t.Errorf("lu/4da on %s at P=128, scale 0.25 allocated %d bytes, want under %d", plat, alloc, limit)
		}
	}
}
