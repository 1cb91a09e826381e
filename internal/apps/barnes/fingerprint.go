package barnes

import "repro/internal/apps/apputil"

// Fingerprint implements core.Instance over the step-0 accelerations
// and position snapshot — the data Verify checks. The freshly built tree's
// structure is canonical (a region is split iff it holds more than leafCap
// bodies, regardless of insertion interleaving) and leaf body lists are kept
// sorted, so step-0 forces are bit-identical across platforms and processor
// counts for a given version. Later steps go through Update-Tree, whose
// structure IS interleaving-dependent (a removal can shrink a leaf below the
// split threshold before a concurrent insertion), so they are deliberately
// not fingerprinted.
func (in *instance) Fingerprint() uint64 {
	h := apputil.NewHash()
	for i := range in.verifyAcc {
		h.Floats(in.verifyAcc[i][:])
		h.Floats(in.posSnap[i][:])
	}
	return h.Sum()
}
