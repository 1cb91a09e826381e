package check

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	_ "repro/internal/apps"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/harness"
)

// TestEngineMatchesPreRefactorGoldens is the protocol-engine differential
// gate. It re-simulates the committed goldens campaign
// (campaigns/goldens.json: every figure cell on svm, smp and dsm at P=8,
// plus each app's original version on svmsmp at P=3 and P=8, scale 0.25)
// with the runtime invariant checker on, and requires every cell's status,
// document fingerprint, end time and result fingerprint to equal the
// committed journal's. The end time pins
// the platform cost model and the result fingerprint pins the computation,
// so a reordered invalidation sweep, a mischarged cycle or a changed fill
// state fails here by cell name before it can bend a figure. The paper
// apps' end times and result fingerprints are the ones the hand-cloned
// platform models produced before they were rebuilt on internal/protocol;
// the journal is re-captured only for a deliberate model change.
func TestEngineMatchesPreRefactorGoldens(t *testing.T) {
	dir := filepath.Join("..", "..", "campaigns")
	data, err := os.ReadFile(filepath.Join(dir, "goldens.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := campaign.DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	hdr, entries, err := campaign.ReadJournal(filepath.Join(dir, "goldens.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if d := campaign.Digest(cells); hdr.Name != spec.Name || hdr.Digest != d || hdr.Cells != len(cells) {
		t.Fatalf("journal header %+v does not match the spec's manifest (%s, digest %s, %d cells)", hdr, spec.Name, d, len(cells))
	}
	// The spec must keep covering what the gate is for: every figure cell,
	// and every app's original version on the two-level svmsmp platform at
	// a cluster-spanning and a single-cluster processor count.
	inManifest := make(map[string]bool, len(cells))
	for _, c := range cells {
		inManifest[c.Key] = true
	}
	need := func(app, version, plat string, np int) {
		s := harness.Spec{App: app, Version: version, Platform: plat, NumProcs: np, Scale: sweepScale, Check: true}
		if !inManifest[s.MemoKey()] {
			t.Errorf("%s is missing from campaigns/goldens.json", s.MemoKey())
		}
	}
	for _, c := range FigureCells() {
		need(c.App, c.Version, c.Platform, sweepProcs)
	}
	for _, app := range core.Apps() {
		need(app, core.OrigVersion(app), "svmsmp", 3)
		need(app, core.OrigVersion(app), "svmsmp", sweepProcs)
	}

	want := make(map[string]campaign.Entry, len(entries))
	for _, e := range entries {
		want[e.Key] = e
	}
	if len(want) != len(cells) {
		t.Errorf("goldens journal holds %d cells, the manifest %d", len(want), len(cells))
	}

	runner := &campaign.Runner{Name: spec.Name, Cells: cells, Exec: &campaign.Local{Memo: harness.NewMemo(nil)}}
	rep, err := runner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		g, w := rep.Entries[c.Key], want[c.Key]
		if w.Key == "" {
			t.Errorf("%s: not in the goldens journal", c.Key)
			continue
		}
		if g.Status != w.Status || g.FP != w.FP || g.End != w.End || g.Result != w.Result {
			t.Errorf("%s: engine diverged from the goldens journal:\n  got  %s fp %s end %d result %s\n  want %s fp %s end %d result %s",
				c.Key, g.Status, g.FP, g.End, g.Result, w.Status, w.FP, w.End, w.Result)
		}
	}
}
