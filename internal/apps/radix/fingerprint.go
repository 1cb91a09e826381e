package radix

import "repro/internal/apps/apputil"

// Fingerprint implements core.Instance: the sorted keys. The sort is a
// stable counting sort over deterministic input, so the output permutation
// is identical across platforms and processor counts.
func (in *instance) Fingerprint() uint64 {
	out := in.keys
	if passes%2 == 1 {
		out = in.scratch
	}
	h := apputil.NewHash()
	for _, k := range out {
		h.Uint32(k)
	}
	return h.Sum()
}
