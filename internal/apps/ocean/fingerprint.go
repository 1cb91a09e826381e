package ocean

import "repro/internal/apps/apputil"

// Fingerprint implements core.Instance: the final grid plus the
// convergence sum. Each point is relaxed by exactly one processor per
// iteration and errSum folds in processor-id order, so both are
// bit-identical across platforms and processor counts.
func (in *instance) Fingerprint() uint64 {
	final := in.a
	if iterations%2 == 1 {
		final = in.b
	}
	h := apputil.NewHash()
	h.Floats(final)
	h.Float64(in.errSum)
	return h.Sum()
}
