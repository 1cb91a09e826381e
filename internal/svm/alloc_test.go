package svm

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// TestAllocFreeFastAccess pins the SVM fast path — page-validity check, page
// shift, cache access — at zero allocations per reference. This is the single
// hottest function of a figure run; one stray allocation here costs gigabytes
// of garbage over a full matrix.
func TestAllocFreeFastAccess(t *testing.T) {
	as := mem.NewAddressSpace(4096, 1)
	a := as.AllocPages(1 << 16)
	as.SetHome(a, 1<<16, 0)
	pl := New(as, protocol.DefaultHLRCParams(), 1)
	k := sim.New(pl, sim.Config{NumProcs: 1})
	pl.Attach(k)
	pl.Prevalidate(a, 1<<16, 0)
	var off uint64
	if n := testing.AllocsPerRun(2000, func() {
		// A striding read stream: L1 hits, L2 hits, and cache misses on a
		// valid page all stay on the fast path.
		pl.FastAccess(0, 0, a+off%(1<<16), false)
		off += 32
	}); n != 0 {
		t.Fatalf("svm FastAccess allocates %v per run; want 0", n)
	}
}
