package volrend

import "repro/internal/apps/apputil"

// Fingerprint implements core.Instance: the rendered image. Each pixel
// is written by exactly one task and ray casting is pure integer/float math
// over the deterministic volume, so the image is identical no matter which
// processor ran (or stole) which tile.
func (in *instance) Fingerprint() uint64 {
	h := apputil.NewHash()
	for _, px := range in.img {
		h.Uint32(px)
	}
	return h.Sum()
}
