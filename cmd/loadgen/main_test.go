package main

import (
	"testing"
	"time"
)

func TestParseCells(t *testing.T) {
	cells, err := parseCells("lu/orig@svm:8, ocean/rows@dsm:16")
	if err != nil {
		t.Fatal(err)
	}
	want := []cell{{"lu", "orig", "svm", 8}, {"ocean", "rows", "dsm", 16}}
	if len(cells) != len(want) {
		t.Fatalf("parsed %d cells, want %d", len(cells), len(want))
	}
	for i := range want {
		if cells[i] != want[i] {
			t.Errorf("cell %d = %+v, want %+v", i, cells[i], want[i])
		}
	}
	for _, bad := range []string{
		"", "lu@svm:8", "lu/orig@svm", "lu/orig@svm:0", "lu/orig@svm:x",
		// Empty components used to parse and only fail later as server
		// 422s mid-run; they must be rejected up front (exit 2 in main).
		"/@:4", "/orig@svm:4", "lu/@svm:4", "lu/orig@:4",
	} {
		if _, err := parseCells(bad); err == nil {
			t.Errorf("parseCells(%q) accepted", bad)
		}
	}
}

func TestParseMetricLine(t *testing.T) {
	if v, ok := parseMetricLine("svmserve_simulations_total 42", "svmserve_simulations_total"); !ok || v != 42 {
		t.Errorf("parse = %v %v, want 42 true", v, ok)
	}
	for _, line := range []string{
		"svmserve_simulations_totals 42",         // different name
		"# HELP svmserve_simulations_total sims", // comment
		`svmserve_requests_total{path="/run"} 3`, // labeled
		"svmserve_simulations_total notanumber",  // bad value
	} {
		if _, ok := parseMetricLine(line, "svmserve_simulations_total"); ok {
			t.Errorf("parseMetricLine accepted %q", line)
		}
	}
}

func TestPercentile(t *testing.T) {
	lats := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(lats, 50); p != 5 {
		t.Errorf("p50 = %d, want 5", p)
	}
	if p := percentile(lats, 100); p != 10 {
		t.Errorf("p100 = %d, want 10", p)
	}
	if p := percentile(nil, 99); p != 0 {
		t.Errorf("empty p99 = %d, want 0", p)
	}
}
