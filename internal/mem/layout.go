package mem

// This file provides the array-layout helpers the paper's restructured
// program versions differ in. Applications keep real data in Go slices; these
// types compute the simulated address of element (i,j) under a particular
// layout, so the same computation can be run with a 2-d row-major layout (the
// "non-contiguous" SPLASH-2 versions), a padded 2-d layout (the P/A class),
// or a 4-d blocked layout (the DS class, partitions contiguous and optionally
// page-aligned).

// Array2D is a dense row-major 2-d array of fixed-size elements, optionally
// with per-row padding (pitch > cols*elem).
type Array2D struct {
	Base  uint64
	Rows  int
	Cols  int
	Elem  int    // element size in bytes
	Pitch uint64 // row stride in bytes (>= Cols*Elem)
}

// NewArray2D allocates a rows x cols array of elem-byte elements with no
// padding.
func NewArray2D(a *AddressSpace, rows, cols, elem int) *Array2D {
	pitch := uint64(cols * elem)
	base := a.Alloc(rows * int(pitch))
	return &Array2D{Base: base, Rows: rows, Cols: cols, Elem: elem, Pitch: pitch}
}

// NewArray2DPadded allocates a rows x cols array whose rows are padded and
// aligned to the given boundary (e.g. the page size). This is the paper's
// pure padding/alignment transformation.
func NewArray2DPadded(a *AddressSpace, rows, cols, elem int, align uint64) *Array2D {
	pitch := (uint64(cols*elem) + align - 1) &^ (align - 1)
	base := a.AllocAlign(rows*int(pitch), align)
	return &Array2D{Base: base, Rows: rows, Cols: cols, Elem: elem, Pitch: pitch}
}

// Addr returns the simulated address of element (i, j).
func (m *Array2D) Addr(i, j int) uint64 {
	return m.Base + uint64(i)*m.Pitch + uint64(j*m.Elem)
}

// RowAddr returns the address of the first element of row i.
func (m *Array2D) RowAddr(i int) uint64 { return m.Base + uint64(i)*m.Pitch }

// Size returns the allocated footprint in bytes.
func (m *Array2D) Size() int { return m.Rows * int(m.Pitch) }

// Array4D represents a 2-d array stored as a 4-d blocked array: the matrix is
// divided into blockRows x blockCols blocks of bRows x bCols elements, and
// each block is contiguous in the address space. With page-aligned blocks this
// is the layout of the SPLASH-2 "contiguous" LU and Ocean versions.
type Array4D struct {
	Base         uint64
	Rows, Cols   int
	BRows, BCols int
	Elem         int
	blockSize    uint64 // bytes per block, including any alignment padding
	blocksPerRow int
}

// NewArray4D allocates a rows x cols array blocked into bRows x bCols tiles.
// If align > 1, every block is padded and aligned to that boundary (the
// paper's final, page-aligned LU layout).
func NewArray4D(a *AddressSpace, rows, cols, bRows, bCols, elem int, align uint64) *Array4D {
	if rows%bRows != 0 || cols%bCols != 0 {
		panic("mem: Array4D dimensions must divide evenly into blocks")
	}
	raw := uint64(bRows * bCols * elem)
	bs := raw
	if align > 1 {
		bs = (raw + align - 1) &^ (align - 1)
	}
	nBlocks := (rows / bRows) * (cols / bCols)
	var base uint64
	if align > 1 {
		base = a.AllocAlign(nBlocks*int(bs), align)
	} else {
		base = a.Alloc(nBlocks * int(bs))
	}
	return &Array4D{
		Base: base, Rows: rows, Cols: cols, BRows: bRows, BCols: bCols,
		Elem: elem, blockSize: bs, blocksPerRow: cols / bCols,
	}
}

// Addr returns the simulated address of element (i, j).
func (m *Array4D) Addr(i, j int) uint64 {
	bi, bj := i/m.BRows, j/m.BCols
	oi, oj := i%m.BRows, j%m.BCols
	block := uint64(bi*m.blocksPerRow + bj)
	return m.Base + block*m.blockSize + uint64((oi*m.BCols+oj)*m.Elem)
}

// BlockAddr returns the base address of block (bi, bj).
func (m *Array4D) BlockAddr(bi, bj int) uint64 {
	return m.Base + uint64(bi*m.blocksPerRow+bj)*m.blockSize
}

// BlockBytes returns the occupied bytes per block (excluding alignment pad).
func (m *Array4D) BlockBytes() int { return m.BRows * m.BCols * m.Elem }

// BlockStride returns the allocated bytes per block (including pad).
func (m *Array4D) BlockStride() uint64 { return m.blockSize }

// Size returns the allocated footprint in bytes.
func (m *Array4D) Size() int {
	return (m.Rows / m.BRows) * (m.Cols / m.BCols) * int(m.blockSize)
}

// Layout2D is the common interface over the layouts: anything that can map
// (i, j) to a simulated address.
type Layout2D interface {
	Addr(i, j int) uint64
}

var (
	_ Layout2D = (*Array2D)(nil)
	_ Layout2D = (*Array4D)(nil)
)
