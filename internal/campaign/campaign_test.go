package campaign

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	_ "repro/internal/apps"
	"repro/internal/harness"
)

// tinySpec is a small valid campaign used throughout the tests: 2 versions
// × 2 platforms × 2 proc counts × 1 scale = 8 cells.
func tinySpec() *Spec {
	return &Spec{
		Name:      "tiny",
		Apps:      []AppMatrix{{App: "lu", Versions: []string{"orig", "4da"}}},
		Platforms: []string{"svm", "smp"},
		Procs:     []int{1, 4},
		Scales:    []float64{0.25},
	}
}

func TestDecodeSpec(t *testing.T) {
	s, err := DecodeSpec([]byte(`{
		"name": "x",
		"apps": [{"app": "lu", "versions": ["orig"]}],
		"platforms": ["svm"], "procs": [1], "scales": [0.5]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "x" || len(s.Apps) != 1 || s.Apps[0].App != "lu" {
		t.Fatalf("decoded %+v", s)
	}

	bad := map[string]string{
		"unknown field":  `{"name":"x","apps":[],"platform":["svm"]}`,
		"trailing data":  `{"name":"x"} {"name":"y"}`,
		"not an object":  `[1,2,3]`,
		"empty document": ``,
	}
	for what, doc := range bad {
		if _, err := DecodeSpec([]byte(doc)); err == nil {
			t.Errorf("DecodeSpec accepted %s: %s", what, doc)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	mutations := []struct {
		what string
		mut  func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"whitespace name", func(s *Spec) { s.Name = "a b" }},
		{"no apps", func(s *Spec) { s.Apps = nil }},
		{"unknown app", func(s *Spec) { s.Apps[0].App = "nope" }},
		{"no versions", func(s *Spec) { s.Apps[0].Versions = nil }},
		{"unknown version", func(s *Spec) { s.Apps[0].Versions = []string{"nope"} }},
		{"unknown platform", func(s *Spec) { s.Platforms = []string{"vax"} }},
		{"no procs", func(s *Spec) { s.Procs = nil }},
		{"zero procs", func(s *Spec) { s.Procs = []int{0} }},
		{"negative scale", func(s *Spec) { s.Scales = []float64{-1} }},
		{"zero scale", func(s *Spec) { s.Scales = []float64{0} }},
	}
	for _, m := range mutations {
		s := tinySpec()
		m.mut(s)
		if _, err := s.Expand(); err == nil {
			t.Errorf("Expand accepted spec with %s", m.what)
		}
	}
	if _, err := tinySpec().Expand(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestExpandDeterministicSortedDeduped(t *testing.T) {
	cells, err := tinySpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	if !sort.SliceIsSorted(cells, func(i, j int) bool { return cells[i].Key < cells[j].Key }) {
		t.Error("cells not sorted by memo key")
	}

	// Reordering and duplicating axis values must not change the manifest.
	s2 := tinySpec()
	s2.Platforms = []string{"smp", "svm", "smp"}
	s2.Procs = []int{4, 1, 4}
	s2.Apps[0].Versions = []string{"4da", "orig", "orig"}
	cells2, err := s2.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if Digest(cells) != Digest(cells2) {
		t.Error("manifest digest depends on axis spelling order")
	}
	if !reflect.DeepEqual(keysOf(cells), keysOf(cells2)) {
		t.Error("cell keys differ across axis spellings")
	}

	// Changing the matrix changes the digest.
	s3 := tinySpec()
	s3.Procs = []int{1, 4, 8}
	cells3, _ := s3.Expand()
	if Digest(cells) == Digest(cells3) {
		t.Error("different manifests share a digest")
	}
}

func keysOf(cells []Cell) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = c.Key
	}
	return out
}

func TestPredicates(t *testing.T) {
	s := tinySpec()
	s.Include = []Predicate{{Platform: "svm"}}
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("include platform=svm: got %d cells, want 4", len(cells))
	}
	for _, c := range cells {
		if c.Spec.Platform != "svm" {
			t.Errorf("include let through %s", c.Key)
		}
	}

	s = tinySpec()
	s.Exclude = []Predicate{{Version: "orig", MinProcs: 2}}
	cells, err = s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Spec.Version == "orig" && c.Spec.NumProcs >= 2 {
			t.Errorf("exclude kept %s", c.Key)
		}
	}
	if len(cells) != 6 {
		t.Fatalf("exclude orig@2+: got %d cells, want 6", len(cells))
	}

	// Predicates that drop everything are an error, not an empty campaign.
	s = tinySpec()
	s.Include = []Predicate{{App: "ocean"}}
	if _, err := s.Expand(); err == nil {
		t.Error("Expand accepted a fully filtered-out campaign")
	}
}

// Class predicates select versions through the registry's taxonomy
// metadata, so a spec can say "all algorithm-redesign variants" without
// naming each app's version spelling.
func TestClassPredicate(t *testing.T) {
	s := &Spec{
		Name: "classes",
		Apps: []AppMatrix{
			{App: "bfs", Versions: []string{"orig", "pad", "part", "dir"}},
			{App: "kvstore", Versions: []string{"orig", "pad", "open", "shard"}},
		},
		Platforms: []string{"svm"},
		Procs:     []int{4},
		Scales:    []float64{0.25},
		Include:   []Predicate{{Class: "Alg"}},
	}
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"bfs/dir": true, "kvstore/shard": true}
	if len(cells) != len(want) {
		t.Fatalf("class=Alg selected %d cells, want %d: %v", len(cells), len(want), keysOf(cells))
	}
	for _, c := range cells {
		if !want[c.Spec.App+"/"+c.Spec.Version] {
			t.Errorf("class=Alg selected %s", c.Key)
		}
	}

	// Excluding by class composes with the other predicate dimensions.
	s.Include = nil
	s.Exclude = []Predicate{{Class: "Orig", MinProcs: 2}, {Class: "P/A"}}
	cells, err = s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Spec.Version == "orig" || c.Spec.Version == "pad" {
			t.Errorf("class exclude kept %s", c.Key)
		}
	}
	if len(cells) != 4 { // part, dir, open, shard
		t.Fatalf("got %d cells after class excludes, want 4", len(cells))
	}

	// A typo'd class name is a spec error, not an empty match.
	s.Exclude = []Predicate{{Class: "Algo"}}
	if _, err := s.Expand(); err == nil {
		t.Error("Expand accepted unknown class name")
	}
	// The four paper class spellings all validate.
	for _, cl := range []string{"Orig", "P/A", "DS", "Alg"} {
		s.Exclude = []Predicate{{Class: cl, MinProcs: 1 << 20}}
		if _, err := s.Expand(); err != nil {
			t.Errorf("class %q rejected: %v", cl, err)
		}
	}
}

func TestTableRendering(t *testing.T) {
	s := tinySpec()
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]Entry{}
	for _, c := range cells {
		entries[c.Key] = Entry{Key: c.Key, Status: "done", FP: "x", End: uint64(1000 / c.Spec.NumProcs)}
	}
	// One failed cell renders as "error".
	failKey := harness.Spec{App: "lu", Version: "4da", Platform: "smp", NumProcs: 4, Scale: 0.25}.MemoKey()
	entries[failKey] = Entry{Key: failKey, Status: "failed", Kind: "deadlock"}

	table := s.Table(entries)
	if !strings.Contains(table, "lu/4da speedup vs uniprocessor original (scale 0.25)") {
		t.Errorf("table missing header:\n%s", table)
	}
	if !strings.Contains(table, "4.00") { // 4-proc perfect speedup at End=250 vs 1000
		t.Errorf("table missing speedup value:\n%s", table)
	}
	if !strings.Contains(table, "error") {
		t.Errorf("failed cell not rendered as error:\n%s", table)
	}
	// A missing baseline blanks the column rather than dividing by zero.
	baseKey := harness.Spec{App: "lu", Version: "orig", Platform: "svm", NumProcs: 1, Scale: 0.25}.MemoKey()
	delete(entries, baseKey)
	if table := s.Table(entries); !strings.Contains(table, "-") {
		t.Errorf("missing baseline not rendered as -:\n%s", table)
	}
	// Each block names its exact scale: two scales that agree to two
	// significant digits still head two distinct blocks.
	s.Scales = []float64{0.125, 0.12}
	table = s.Table(entries)
	for _, h := range []string{"lu/4da speedup vs uniprocessor original (scale 0.125)\n", "lu/4da speedup vs uniprocessor original (scale 0.12)\n"} {
		if strings.Count(table, h) != 1 {
			t.Errorf("table has %d blocks headed %q, want 1:\n%s", strings.Count(table, h), h, table)
		}
	}
}

// TestTableSpecOrderAndFailedBaseline: rows follow the spec's processor
// order, and a failed baseline turns its platform's column into "error" —
// a failure is not a missing cell.
func TestTableSpecOrderAndFailedBaseline(t *testing.T) {
	s := tinySpec()
	s.Apps[0].Versions = []string{"4da"}
	s.Procs = []int{4, 1}
	entries := map[string]Entry{}
	for _, pl := range s.Platforms {
		for _, sp := range []harness.Spec{
			{App: "lu", Version: "orig", Platform: pl, NumProcs: 1, Scale: 0.25},
			{App: "lu", Version: "4da", Platform: pl, NumProcs: 1, Scale: 0.25},
			{App: "lu", Version: "4da", Platform: pl, NumProcs: 4, Scale: 0.25},
		} {
			entries[sp.MemoKey()] = Entry{Key: sp.MemoKey(), Status: "done", End: uint64(1000 / sp.NumProcs)}
		}
	}
	baseKey := harness.Spec{App: "lu", Version: "orig", Platform: "smp", NumProcs: 1, Scale: 0.25}.MemoKey()
	entries[baseKey] = Entry{Key: baseKey, Status: "failed", Kind: "panic"}
	want := "lu/4da speedup vs uniprocessor original (scale 0.25)\n" +
		"     P      svm      smp\n" +
		"     4     4.00    error\n" +
		"     1     1.00    error\n"
	if got := s.Table(entries); got != want {
		t.Errorf("table:\n%s\nwant:\n%s", got, want)
	}
}
