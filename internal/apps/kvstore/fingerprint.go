package kvstore

import "repro/internal/apps/apputil"

// Fingerprint implements core.Instance: the final table contents in
// key order. Puts are commutative additions applied atomically with respect
// to simulated yields, so the values are identical across platforms,
// processor counts, interleavings, and table layouts.
func (in *instance) Fingerprint() uint64 {
	h := apputil.NewHash()
	for _, v := range in.vals {
		h.Uint64(v)
	}
	return h.Sum()
}
