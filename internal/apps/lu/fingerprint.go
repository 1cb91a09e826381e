package lu

import "repro/internal/apps/apputil"

// Fingerprint implements core.Instance: the in-place LU factors, the
// same data Verify multiplies back. Every processor updates disjoint blocks
// in a fixed order, so the factors are bit-identical across platforms and
// processor counts.
func (in *instance) Fingerprint() uint64 {
	h := apputil.NewHash()
	h.Floats(in.data)
	return h.Sum()
}
