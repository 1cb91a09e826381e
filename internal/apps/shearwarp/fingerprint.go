package shearwarp

import "repro/internal/apps/apputil"

// Fingerprint implements core.Instance: the warped final image and the
// intermediate (sheared) image, the two buffers Verify checks. Compositing
// walks each scanline front-to-back in a fixed order regardless of which
// processor owns it, so both images are bit-identical across platforms and
// processor counts.
func (in *instance) Fingerprint() uint64 {
	h := apputil.NewHash()
	h.Floats(in.final)
	h.Floats(in.inter)
	return h.Sum()
}
