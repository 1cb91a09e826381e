// Package mem provides the simulated shared address space used by the
// applications. Addresses are synthetic: applications keep their real data in
// ordinary Go slices and separately issue simulated addresses describing how
// that data would be laid out in a shared address space. The address space
// tracks page homes (the node that owns each page under a home-based protocol
// or a NUMA memory placement) and provides the layout helpers — 2-d arrays,
// 4-d blocked arrays, padding and alignment — that the paper's restructured
// program versions differ in.
package mem

import "fmt"

// AddressSpace is a simulated, page-granular shared address space.
type AddressSpace struct {
	pageSize uint64
	next     uint64
	homes    []int // per page number; -1 = unassigned (defaults round-robin)
	numNodes int
}

// NewAddressSpace creates an address space with the given page size (must be
// a power of two) shared by numNodes nodes. Allocation starts at one page, so
// address 0 is never valid.
func NewAddressSpace(pageSize uint64, numNodes int) *AddressSpace {
	if pageSize == 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("mem: page size %d is not a power of two", pageSize))
	}
	if numNodes <= 0 {
		panic("mem: need at least one node")
	}
	return &AddressSpace{pageSize: pageSize, next: pageSize, numNodes: numNodes}
}

// PageSize returns the page size in bytes.
func (a *AddressSpace) PageSize() uint64 { return a.pageSize }

// PageOf returns the page number containing addr.
func (a *AddressSpace) PageOf(addr uint64) uint64 { return addr / a.pageSize }

// PageBase returns the first address of the page containing addr.
func (a *AddressSpace) PageBase(addr uint64) uint64 { return addr &^ (a.pageSize - 1) }

// NumPages returns the number of pages allocated so far.
func (a *AddressSpace) NumPages() uint64 { return (a.next + a.pageSize - 1) / a.pageSize }

// Alloc reserves n bytes, 8-byte aligned, and returns the base address.
func (a *AddressSpace) Alloc(n int) uint64 {
	return a.AllocAlign(n, 8)
}

// AllocAlign reserves n bytes at the given alignment (a power of two) and
// returns the base address.
func (a *AddressSpace) AllocAlign(n int, align uint64) uint64 {
	if n < 0 {
		panic("mem: negative allocation")
	}
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	base := (a.next + align - 1) &^ (align - 1)
	a.next = base + uint64(n)
	a.growHomes()
	return base
}

// AllocPages reserves n bytes starting on a fresh page boundary.
func (a *AddressSpace) AllocPages(n int) uint64 {
	return a.AllocAlign(n, a.pageSize)
}

func (a *AddressSpace) growHomes() {
	np := int(a.NumPages())
	for len(a.homes) < np {
		a.homes = append(a.homes, -1)
	}
}

// Home returns the home node of the page containing addr. Pages with no
// explicit assignment default to round-robin by page number, the placement
// the paper uses when nothing better is available.
func (a *AddressSpace) Home(addr uint64) int {
	p := a.PageOf(addr)
	if p < uint64(len(a.homes)) && a.homes[p] >= 0 {
		return a.homes[p]
	}
	return int(p % uint64(a.numNodes))
}

// SetHome assigns the pages overlapping [addr, addr+n) to node. This models
// explicit data distribution ("performed in all cases where it is reasonably
// allowed by the algorithms", paper §5.2).
func (a *AddressSpace) SetHome(addr uint64, n int, node int) {
	if node < 0 || node >= a.numNodes {
		panic(fmt.Sprintf("mem: node %d out of range", node))
	}
	a.growHomes()
	first := a.PageOf(addr)
	last := a.PageOf(addr + uint64(n) - 1)
	if n == 0 {
		last = first
	}
	for p := first; p <= last && p < uint64(len(a.homes)); p++ {
		a.homes[p] = node
	}
}

// DistributeBlocked splits [addr, addr+n) into numNodes contiguous chunks of
// whole pages and homes chunk i on node i.
func (a *AddressSpace) DistributeBlocked(addr uint64, n int) {
	a.growHomes()
	first := a.PageOf(addr)
	last := a.PageOf(addr + uint64(n) - 1)
	total := last - first + 1
	per := (total + uint64(a.numNodes) - 1) / uint64(a.numNodes)
	for p := first; p <= last && p < uint64(len(a.homes)); p++ {
		node := int((p - first) / per)
		if node >= a.numNodes {
			node = a.numNodes - 1
		}
		a.homes[p] = node
	}
}

// DistributeRoundRobin homes the pages of [addr, addr+n) round-robin across
// nodes, page i on node i mod numNodes.
func (a *AddressSpace) DistributeRoundRobin(addr uint64, n int) {
	a.growHomes()
	first := a.PageOf(addr)
	last := a.PageOf(addr + uint64(n) - 1)
	for p := first; p <= last && p < uint64(len(a.homes)); p++ {
		a.homes[p] = int((p - first) % uint64(a.numNodes))
	}
}
