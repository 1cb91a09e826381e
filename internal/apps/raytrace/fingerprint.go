package raytrace

import "repro/internal/apps/apputil"

// Fingerprint implements core.Instance: the rendered image plus the
// global ray counter. Each pixel belongs to exactly one task, and the ray
// count is a plain sum of per-pixel integer counts, so both are identical
// across platforms, processor counts and queue organizations.
func (in *instance) Fingerprint() uint64 {
	h := apputil.NewHash()
	h.Floats(in.img)
	h.Uint64(in.statRays)
	return h.Sum()
}
