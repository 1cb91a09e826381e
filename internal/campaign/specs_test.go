package campaign

import (
	"os"
	"path/filepath"
	"testing"

	_ "repro/internal/apps"
)

// The committed irregular-workload campaign spec must expand to the exact
// manifest its committed journal was written for. This pins three things
// at once: the spec file's axes, the class predicates resolving through
// the registry taxonomy (a version gaining or losing its class silently
// would shrink the manifest), and the memo-key spelling the journal's
// entries are addressed by. If this digest changes, the journal can no
// longer resume and must be regenerated along with the spec.
const irregularDigest = "12e437818e2210f5bffcde0f112d2d37"

func readSpec(t *testing.T, name string) *Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "campaigns", name))
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIrregularSpecExpandsToCommittedDigest(t *testing.T) {
	s := readSpec(t, "irregular.json")
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 3 apps x 4 versions x 6 platforms x 5 proc counts x 1 scale; the
	// all-classes include must not filter anything (every version carries
	// one of the paper's four classes).
	if len(cells) != 360 {
		t.Fatalf("irregular.json expands to %d cells, want 360", len(cells))
	}
	if d := Digest(cells); d != irregularDigest {
		t.Errorf("irregular.json manifest digest %s, want %s (spec or memo-key spelling changed; regenerate the journal)", d, irregularDigest)
	}
}

// The committed journal must belong to that same manifest and record every
// cell done, so `campaign -spec campaigns/irregular.json -resume -table`
// re-renders the study with zero simulations.
func TestIrregularJournalIsCompleteForCommittedDigest(t *testing.T) {
	hdr, entries, err := ReadJournal(filepath.Join("..", "..", "campaigns", "irregular.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Name != "irregular" || hdr.Digest != irregularDigest || hdr.Cells != 360 {
		t.Fatalf("journal header %+v does not match committed digest %s / 360 cells", hdr, irregularDigest)
	}
	for _, e := range entries {
		if e.Status != "done" {
			t.Errorf("cell %s journaled as %s, want done", e.Key, e.Status)
		}
	}
	if len(entries) != 360 {
		t.Errorf("journal has %d entries, want 360", len(entries))
	}
}
