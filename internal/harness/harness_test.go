package harness

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	_ "repro/internal/apps"
	"repro/internal/core"
	"repro/internal/platform"
)

// TestExecuteUnknownAppAndVersion: Execute rejects, after applying its
// defaults, every spec Validate rejects, so a negative processor count no
// longer crashes the host in the address-space constructor and a negative
// scale is no longer clamped and run. The error stays an ordinary "error"
// kind in the JSON document.
func TestExecuteUnknownAppAndVersion(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Spec{App: "nope"}, `unknown app "nope"`},
		{Spec{App: "lu", Version: "nope"}, `no version "nope"`},
		{Spec{App: "lu", Version: "orig", Platform: "vax"}, `unknown platform "vax"`},
		{Spec{App: "lu", Version: "orig", Platform: "svm", NumProcs: -3, Scale: 0.25}, "bad processor count -3"},
		{Spec{App: "lu", Version: "orig", Platform: "svm", NumProcs: 2, Scale: -1}, "bad scale -1"},
	} {
		run, err := Execute(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Execute(%+v) = %v, %v; want error containing %q", c.spec, run, err, c.want)
			continue
		}
		doc, jerr := RunErrorJSON(c.spec, err)
		if jerr != nil {
			t.Fatal(jerr)
		}
		var got struct {
			Error struct{ Kind string } `json:"error"`
		}
		if err := json.Unmarshal(doc, &got); err != nil || got.Error.Kind != "error" {
			t.Errorf("error document %s (%v), want kind \"error\"", doc, err)
		}
	}
}

// TestSpecValidate is the table of inputs the commands used to clamp or
// run silently: each must be rejected with a message naming the bad value.
func TestSpecValidate(t *testing.T) {
	good := Spec{App: "ocean", Version: "rows", Platform: "svm", NumProcs: 4, Scale: 0.25}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []struct {
		what string
		mut  func(*Spec)
		want string
	}{
		{"unknown app", func(s *Spec) { s.App = "oceanx" }, `unknown app "oceanx"`},
		{"unknown version", func(s *Spec) { s.Version = "nosuch" }, `no version "nosuch"`},
		{"empty version", func(s *Spec) { s.Version = "" }, `no version ""`},
		{"unknown platform", func(s *Spec) { s.Platform = "vax" }, `unknown platform "vax"`},
		{"empty platform", func(s *Spec) { s.Platform = "" }, `unknown platform ""`},
		{"zero procs", func(s *Spec) { s.NumProcs = 0 }, "bad processor count 0"},
		{"negative procs", func(s *Spec) { s.NumProcs = -2 }, "bad processor count -2"},
		{"zero scale", func(s *Spec) { s.Scale = 0 }, "bad scale 0"},
		{"negative scale", func(s *Spec) { s.Scale = -1 }, "bad scale -1"},
		{"NaN scale", func(s *Spec) { s.Scale = math.NaN() }, "bad scale NaN"},
		{"infinite scale", func(s *Spec) { s.Scale = math.Inf(1) }, "bad scale +Inf"},
	}
	for _, b := range bad {
		s := good
		b.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", b.what, err, b.want)
		}
	}
}

// TestRegistryListsEverything pins the registry the figures and campaigns
// enumerate: the paper's seven apps plus three extensions, each with an
// original first and at least two restructured versions, on the paper's
// three platforms. The zz- apps this package's tests register are left out.
func TestRegistryListsEverything(t *testing.T) {
	testApp := func(app string) bool { return strings.HasPrefix(app, "zz-") }
	apps := slices.DeleteFunc(core.Apps(), testApp)
	paper := slices.DeleteFunc(core.PaperApps(), testApp)
	if len(apps) != 10 || len(paper) != 7 {
		t.Fatalf("%d apps, %d paper apps; want 10 (7 paper + 3 extensions): %v", len(apps), len(paper), apps)
	}
	for _, app := range apps {
		a, err := core.Lookup(app)
		if err != nil {
			t.Fatal(err)
		}
		vs := a.Versions()
		if len(vs) < 3 {
			t.Errorf("%s has only %d versions", app, len(vs))
		}
		if vs[0].Class != core.Orig {
			t.Errorf("%s first version class = %s, want Orig", app, vs[0].Class)
		}
	}
	if !slices.Equal(platform.Names, []string{"svm", "smp", "dsm"}) {
		t.Errorf("paper platforms = %v, want [svm smp dsm]", platform.Names)
	}
}

func TestExecuteDefaults(t *testing.T) {
	run, err := Execute(Spec{App: "radix", Scale: 0.25, NumProcs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if run.NumProcs != 4 {
		t.Errorf("procs = %d, want 4", run.NumProcs)
	}
	if run.EndTime == 0 {
		t.Error("zero end time")
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(4, 0.125)
	a, err := r.Run("radix", "orig", "svm")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("radix", "orig", "svm")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second Run did not return the memoized result")
	}
}

func TestSpeedupUsesOrigBaseline(t *testing.T) {
	r := NewRunner(4, 0.125)
	s1, err := r.Speedup("radix", "orig", "svm")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Speedup("radix", "local", "svm")
	if err != nil {
		t.Fatal(err)
	}
	// Both share the same T1(orig): ratio of speedups = inverse ratio of
	// run times.
	ro, _ := r.Run("radix", "orig", "svm")
	rl, _ := r.Run("radix", "local", "svm")
	want := float64(ro.EndTime) / float64(rl.EndTime)
	if got := s2 / s1; got < want*0.999 || got > want*1.001 {
		t.Errorf("speedup ratio %.4f, want %.4f", got, want)
	}
}

func TestFiguresRegistryComplete(t *testing.T) {
	figs := Figures()
	want := []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17"}
	if len(figs) != len(want) {
		t.Fatalf("%d figures registered, want %d", len(figs), len(want))
	}
	for i, id := range want {
		if figs[i].ID != id {
			t.Errorf("figure %d = %s, want %s", i, figs[i].ID, id)
		}
	}
	if _, err := FindFigure("fig99"); err == nil {
		t.Error("expected error for unknown figure")
	}
}

// TestFiguresRenderOnlyListedCells: a figure's Run reads only cells its
// Cells lists, so after pre-execution rendering simulates nothing (an
// unlisted cell would run serially, after the worker pool). Each figure gets
// a fresh runner, so one figure's list cannot cover for another's.
func TestFiguresRenderOnlyListedCells(t *testing.T) {
	for _, f := range Figures() {
		if testing.Short() && f.ID != "fig17" {
			continue
		}
		r := NewRunner(2, 0.125)
		r.RunParallel(0, f.Cells())
		before := r.CacheStats().Executions
		if before == 0 {
			t.Fatalf("%s: pre-execution simulated nothing", f.ID)
		}
		if _, err := f.Run(r); err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		if grew := r.CacheStats().Executions - before; grew != 0 {
			t.Errorf("%s: rendering simulated %d cell(s) its Cells does not list", f.ID, grew)
		}
	}
}

func TestBreakdownFiguresCoverRegisteredVersions(t *testing.T) {
	for _, b := range breakdowns {
		a, err := core.Lookup(b.app)
		if err != nil {
			t.Fatalf("%s: %v", b.id, err)
		}
		if _, err := core.FindVersion(a, b.version); err != nil {
			t.Errorf("%s: %v", b.id, err)
		}
	}
}

func TestBreakdownFigureRuns(t *testing.T) {
	f, err := FindFigure("fig15")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(4, 0.125)
	out, err := f.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Compute") || !strings.Contains(out, "DataWait") {
		t.Errorf("breakdown table missing category headers:\n%s", out)
	}
}
