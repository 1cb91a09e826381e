package check

import (
	"testing"

	_ "repro/internal/apps"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/platform"
)

// The irregular modern workloads of ROADMAP item 3. Their computed results
// are designed to be bit-identical across every platform preset, processor
// count, and restructured version, so the differential net over them can be
// much tighter than for the floating-point paper applications.
var irregularApps = []string{"bfs", "kvstore", "pipeline"}

var irregularProcs = []int{1, 2, 4, 8, 16}

// The irregular workloads must be registered as extensions: available to
// sweeps and campaigns, excluded from the paper-figure enumerations.
func TestIrregularAppsRegisteredAsExtensions(t *testing.T) {
	inPaper := map[string]bool{}
	for _, a := range core.PaperApps() {
		inPaper[a] = true
	}
	for _, app := range irregularApps {
		if !core.IsExtension(app) {
			t.Errorf("%s is not registered as an extension", app)
		}
		if inPaper[app] {
			t.Errorf("%s leaked into PaperApps()", app)
		}
		if _, err := core.Lookup(app); err != nil {
			t.Errorf("%s not registered: %v", app, err)
		}
	}
	if len(core.Apps()) != len(core.PaperApps())+len(irregularApps) {
		t.Errorf("Apps() has %d entries, PaperApps() %d + %d extensions expected",
			len(core.Apps()), len(core.PaperApps()), len(irregularApps))
	}
}

// Every version of every irregular workload must produce one single
// fingerprint across the full differential net: all six platform presets
// crossed with processor counts 1..16. One mismatch anywhere means an
// interleaving-dependent result leaked into the computation.
func TestIrregularFingerprintsAcrossAllPresetsAndProcCounts(t *testing.T) {
	for _, app := range irregularApps {
		a, err := core.Lookup(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range a.Versions() {
			t.Run(app+"/"+v.Name, func(t *testing.T) {
				var first uint64
				firstCell := ""
				for _, plat := range platform.AllPresets {
					for _, np := range irregularProcs {
						_, fp, err := harness.ExecuteFingerprint(harness.Spec{
							App: app, Version: v.Name, Platform: plat,
							NumProcs: np, Scale: sweepScale,
						})
						if err != nil {
							t.Errorf("%s p=%d: %v", plat, np, err)
							continue
						}
						if firstCell == "" {
							first, firstCell = fp, plat
						} else if fp != first {
							t.Errorf("fingerprint %016x on %s p=%d != %016x on %s",
								fp, plat, np, first, firstCell)
						}
					}
				}
			})
		}
	}
}

// Running any irregular cell twice must be byte-identical, on every
// platform preset, with the runtime invariant checker enabled — this is
// also the guaranteed-checked cell per app x platform combination.
func TestIrregularRunTwiceByteIdenticalEveryPreset(t *testing.T) {
	for _, app := range irregularApps {
		for _, plat := range platform.AllPresets {
			spec := harness.Spec{
				App: app, Version: core.OrigVersion(app), Platform: plat,
				NumProcs: sweepProcs, Scale: sweepScale, Check: true,
			}
			if err := DiffRuns(spec); err != nil {
				t.Error(err)
			}
		}
	}
}

// Every restructured version must verify at a processor count that divides
// neither the problem sizes nor the four-stage pipeline.
func TestIrregularVersionsVerifyAtAwkwardProcCounts(t *testing.T) {
	for _, app := range irregularApps {
		a, err := core.Lookup(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range a.Versions() {
			if _, err := harness.Execute(harness.Spec{
				App: app, Version: v.Name, Platform: "svm",
				NumProcs: 5, Scale: sweepScale, Check: true,
			}); err != nil {
				t.Errorf("%s/%s P=5: %v", app, v.Name, err)
			}
		}
	}
}
