package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocAlignment(t *testing.T) {
	as := NewAddressSpace(4096, 4)
	a := as.Alloc(100)
	if a%8 != 0 {
		t.Errorf("Alloc not 8-aligned: %d", a)
	}
	b := as.AllocAlign(100, 4096)
	if b%4096 != 0 {
		t.Errorf("AllocAlign not page-aligned: %d", b)
	}
	if b <= a {
		t.Errorf("allocations overlap: %d then %d", a, b)
	}
	c := as.AllocPages(10)
	if c%4096 != 0 {
		t.Errorf("AllocPages not page-aligned: %d", c)
	}
}

func TestAddressZeroNeverAllocated(t *testing.T) {
	as := NewAddressSpace(4096, 1)
	if a := as.Alloc(8); a == 0 {
		t.Error("address 0 must never be handed out")
	}
}

func TestHomesRoundRobinDefault(t *testing.T) {
	as := NewAddressSpace(4096, 4)
	a := as.Alloc(4096 * 8)
	for i := 0; i < 8; i++ {
		addr := a + uint64(i)*4096
		want := int(as.PageOf(addr) % 4)
		if got := as.Home(addr); got != want {
			t.Errorf("default home of page %d = %d, want %d", as.PageOf(addr), got, want)
		}
	}
}

func TestSetHomeAndBlocked(t *testing.T) {
	as := NewAddressSpace(4096, 4)
	a := as.AllocPages(4096 * 8)
	as.SetHome(a, 4096*8, 2)
	for i := 0; i < 8; i++ {
		if got := as.Home(a + uint64(i)*4096); got != 2 {
			t.Errorf("page %d home = %d, want 2", i, got)
		}
	}
	b := as.AllocPages(4096 * 8)
	as.DistributeBlocked(b, 4096*8)
	if as.Home(b) != 0 || as.Home(b+7*4096) != 3 {
		t.Errorf("blocked distribution wrong: first=%d last=%d", as.Home(b), as.Home(b+7*4096))
	}
	cAddr := as.AllocPages(4096 * 8)
	as.DistributeRoundRobin(cAddr, 4096*8)
	for i := 0; i < 8; i++ {
		if got := as.Home(cAddr + uint64(i)*4096); got != i%4 {
			t.Errorf("rr page %d home = %d, want %d", i, got, i%4)
		}
	}
}

func TestArray2DAddressing(t *testing.T) {
	as := NewAddressSpace(4096, 4)
	m := NewArray2D(as, 16, 16, 8)
	if m.Addr(0, 1)-m.Addr(0, 0) != 8 {
		t.Error("column stride wrong")
	}
	if m.Addr(1, 0)-m.Addr(0, 0) != 16*8 {
		t.Error("row stride wrong")
	}
}

func TestArray2DPadded(t *testing.T) {
	as := NewAddressSpace(4096, 4)
	m := NewArray2DPadded(as, 4, 16, 8, 4096)
	if m.Base%4096 != 0 {
		t.Error("padded array base not aligned")
	}
	if m.Addr(1, 0)-m.Addr(0, 0) != 4096 {
		t.Errorf("padded row stride = %d, want 4096", m.Addr(1, 0)-m.Addr(0, 0))
	}
	// Different rows land on different pages: no false sharing.
	if as.PageOf(m.Addr(0, 15)) == as.PageOf(m.Addr(1, 0)) {
		t.Error("padded rows share a page")
	}
}

func TestArray4DBlockContiguity(t *testing.T) {
	as := NewAddressSpace(4096, 4)
	m := NewArray4D(as, 32, 32, 8, 8, 8, 1)
	// All elements of block (0,0) are within one contiguous 512-byte run.
	lo, hi := m.Addr(0, 0), m.Addr(0, 0)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			a := m.Addr(i, j)
			if a < lo {
				lo = a
			}
			if a > hi {
				hi = a
			}
		}
	}
	if hi-lo != 8*8*8-8 {
		t.Errorf("block not contiguous: span %d", hi-lo)
	}
	// Element addresses are unique across the whole array.
	seen := map[uint64]bool{}
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			a := m.Addr(i, j)
			if seen[a] {
				t.Fatalf("duplicate address for (%d,%d)", i, j)
			}
			seen[a] = true
		}
	}
}

func TestArray4DPageAligned(t *testing.T) {
	as := NewAddressSpace(4096, 4)
	m := NewArray4D(as, 64, 64, 16, 16, 8, 4096)
	for bi := 0; bi < 4; bi++ {
		for bj := 0; bj < 4; bj++ {
			if m.BlockAddr(bi, bj)%4096 != 0 {
				t.Errorf("block (%d,%d) not page aligned", bi, bj)
			}
		}
	}
	// Distinct blocks never share a page.
	if as.PageOf(m.BlockAddr(0, 0)+uint64(m.BlockBytes())-1) == as.PageOf(m.BlockAddr(0, 1)) {
		t.Error("adjacent aligned blocks share a page")
	}
}

func TestArray4DMatches2DCoverage(t *testing.T) {
	// Property: for random in-range (i,j), Array4D.Addr is injective and
	// in-bounds.
	as := NewAddressSpace(4096, 4)
	m := NewArray4D(as, 64, 64, 16, 16, 8, 1)
	f := func(i, j uint8) bool {
		ii, jj := int(i)%64, int(j)%64
		a := m.Addr(ii, jj)
		return a >= m.Base && a < m.Base+uint64(m.Size())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageOfPageBase(t *testing.T) {
	as := NewAddressSpace(4096, 2)
	if as.PageOf(4096) != 1 || as.PageOf(4095) != 0 || as.PageOf(5000) != 1 {
		t.Error("PageOf wrong")
	}
}

func TestBadPageSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two page size")
		}
	}()
	NewAddressSpace(3000, 2)
}
