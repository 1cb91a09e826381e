package harness

import (
	"bytes"
	"testing"
)

// TestOptimizedKernelByteIdentical is the regression net under the hot-path
// optimizations (flat cache tag arrays, fused hit-access, page-shift math,
// pooled release vector clocks): a representative figure cell simulated
// twice must render byte-identical JSON, and enabling the runtime invariant
// checker — which sweeps but must never mutate protocol state — must not
// change a byte either. Any optimization that reorders a mutation, skips an
// LRU update, or shares state it should copy shows up here as a diff.
func TestOptimizedKernelByteIdentical(t *testing.T) {
	if testing.Short() {
		// The cell below is a full 16-processor SVM simulation (~seconds);
		// the -short tier is covered by the claims suite exercising the
		// same kernel via memoized cells.
		t.Skip("full determinism cell skipped in -short")
	}
	spec := Spec{App: "ocean", Version: "rows", Platform: "svm", NumProcs: 16, Scale: BaseScale["ocean"] * 0.5}

	render := func(s Spec) []byte {
		t.Helper()
		run, err := Execute(s)
		if err != nil {
			t.Fatalf("%s: %v", s.label(), err)
		}
		out, err := RunJSON(s, run, 0)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	first := render(spec)
	second := render(spec)
	if !bytes.Equal(first, second) {
		t.Fatalf("two runs of %s differ:\n%s", spec.label(), firstDiff(first, second))
	}
	checked := spec
	checked.Check = true
	withCheck := render(checked)
	if !bytes.Equal(first, withCheck) {
		t.Fatalf("run of %s with Check enabled differs from unchecked run:\n%s", spec.label(), firstDiff(first, withCheck))
	}
}

// TestQuantumEdgesByteIdentical pins the event-loop scheduler's quantum
// invariance at its edge cases: Quantum 1 (a processor yields at every
// opportunity past the horizon) and an effectively infinite quantum (a
// processor only ever yields at synchronization points) must render exactly
// the same output as the default slice. Every synchronization and slow-path
// event is pinned to the virtual-time floor by a syncPoint (the kernel-level
// guarantee, pinned exhaustively by sim's TestPropertyQuantumInvariance), so
// the quantum can only move the two effects the model deliberately leaves
// "near virtual-time" (DESIGN.md §8):
//
//   - handler-debt folding: work an SVM home node performs for others is
//     folded into its clock at its next scheduling pick, and the quantum
//     sets the pick cadence — visible for apps with heavy mid-phase page
//     traffic (ocean, raytrace, barnes on svm);
//   - hardware coherence vs. the fast path: on dsm/smp a remote write
//     invalidates lines at its own virtual time, so fine-grained read-write
//     sharing (radix's permutation, barnes's tree build) can see a fast
//     read land on either side of a same-window invalidation.
//
// Cells exercising neither mechanism must be exactly invariant, and this
// test pins that subset across apps and platforms; cells where a mechanism
// is active are deliberately not pinned. Small cells keep this in the
// -race -short CI leg; a full-size cell joins outside -short.
func TestQuantumEdgesByteIdentical(t *testing.T) {
	cells := []Spec{
		{App: "lu", Version: "orig", Platform: "svm", NumProcs: 4, Scale: 0.25},
		{App: "lu", Version: "orig", Platform: "smp", NumProcs: 4, Scale: 0.25},
		{App: "lu", Version: "4d", Platform: "dsm", NumProcs: 4, Scale: 0.25},
		{App: "ocean", Version: "rows", Platform: "dsm", NumProcs: 4, Scale: 0.25},
		{App: "ocean", Version: "rows", Platform: "smp", NumProcs: 4, Scale: 0.25},
		{App: "radix", Version: "orig", Platform: "svm", NumProcs: 4, Scale: 0.25},
		{App: "shearwarp", Version: "orig", Platform: "svm", NumProcs: 4, Scale: 0.25},
	}
	if !testing.Short() {
		cells = append(cells,
			Spec{App: "lu", Version: "4d", Platform: "dsm", NumProcs: 16, Scale: 0.5},
			Spec{App: "ocean", Version: "rows", Platform: "smp", NumProcs: 16, Scale: 0.5},
			Spec{App: "shearwarp", Version: "orig", Platform: "svm", NumProcs: 16, Scale: 0.5})
	}
	render := func(s Spec) []byte {
		t.Helper()
		run, err := Execute(s)
		if err != nil {
			t.Fatalf("%s: %v", s.label(), err)
		}
		out, err := RunJSON(s, run, 0)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, base := range cells {
		base.Check = true // the quantum edges run under the invariant checker too
		def := render(base)
		for _, q := range []uint64{1, 1 << 40} {
			spec := base
			spec.Quantum = q
			got := render(spec)
			// The rendered spec echoes only behavior-relevant fields, so
			// the bytes must match exactly across quanta.
			if !bytes.Equal(def, got) {
				t.Errorf("%s: Quantum=%d output differs from default quantum:\n%s",
					base.label(), q, firstDiff(def, got))
			}
		}
	}
}

// firstDiff renders the first differing region of two byte slices for a
// readable failure message.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			hi := i + 40
			if hi > n {
				hi = n
			}
			return "first: ..." + string(a[lo:hi]) + "...\nsecond: ..." + string(b[lo:hi]) + "..."
		}
	}
	return "lengths differ"
}
