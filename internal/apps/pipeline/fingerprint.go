package pipeline

import "repro/internal/apps/apputil"

// Fingerprint implements core.Instance: the output array in item
// order. Each item passes through each stage exactly once and the
// transform ignores which processor ran it, so the values are identical
// across platforms, processor counts, interleavings, and versions.
func (in *instance) Fingerprint() uint64 {
	h := apputil.NewHash()
	for _, v := range in.vals {
		h.Uint64(v)
	}
	return h.Sum()
}
