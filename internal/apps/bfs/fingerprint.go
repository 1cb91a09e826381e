package bfs

import "repro/internal/apps/apputil"

// Fingerprint implements core.Instance: the distance array in vertex
// order. Distances are a pure function of the graph — the two-phase
// owner-claim protocol makes them independent of interleaving, platform,
// processor count, and version.
func (in *instance) Fingerprint() uint64 {
	h := apputil.NewHash()
	for _, d := range in.dist {
		h.Uint32(uint32(d))
	}
	return h.Sum()
}
