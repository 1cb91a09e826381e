package main

import (
	"strings"
	"testing"
)

func report(micro map[string]Micro) Report {
	return Report{Micro: micro}
}

// TestCompareOneSided pins the gate's one-sided contract: arbitrarily large
// improvements in ns/op or allocs/op must pass. The event-loop kernel rewrite
// made kernel_stream_32k ~3x faster and dropped 26 allocs/op; a two-sided
// band would have failed CI on the improvement itself.
func TestCompareOneSided(t *testing.T) {
	ref := report(map[string]Micro{"kernel_stream_32k": {NsPerOp: 844800, AllocsPerOp: 26}})
	cur := report(map[string]Micro{"kernel_stream_32k": {NsPerOp: 2000, AllocsPerOp: 0}})
	lines, failed := compare(ref, cur, 0.10)
	if failed {
		t.Fatalf("gate failed on a 400x improvement:\n%s", strings.Join(lines, "\n"))
	}
}

func TestCompareNsRegressionBeyondToleranceFails(t *testing.T) {
	ref := report(map[string]Micro{"svm_fastaccess": {NsPerOp: 10, AllocsPerOp: 0}})
	cur := report(map[string]Micro{"svm_fastaccess": {NsPerOp: 12, AllocsPerOp: 0}})
	if _, failed := compare(ref, cur, 0.10); !failed {
		t.Fatal("gate passed a +20% ns/op regression at 10% tolerance")
	}
	if _, failed := compare(ref, cur, 0.50); failed {
		t.Fatal("gate failed a +20% ns/op change at 50% tolerance")
	}
}

func TestCompareAllocIncreaseFailsExactly(t *testing.T) {
	ref := report(map[string]Micro{"kernel_stream_32k": {NsPerOp: 1000, AllocsPerOp: 0}})
	cur := report(map[string]Micro{"kernel_stream_32k": {NsPerOp: 900, AllocsPerOp: 1}})
	if _, failed := compare(ref, cur, 0.50); !failed {
		t.Fatal("gate passed a 0 -> 1 allocs/op increase (allocs are compared exactly)")
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	ref := report(map[string]Micro{"emit_nilsink": {NsPerOp: 1, AllocsPerOp: 0}})
	cur := report(map[string]Micro{})
	lines, failed := compare(ref, cur, 0.50)
	if !failed {
		t.Fatal("gate passed with a reference benchmark missing from the current run")
	}
	if !strings.Contains(strings.Join(lines, "\n"), "missing from current run") {
		t.Fatalf("missing benchmark not reported:\n%s", strings.Join(lines, "\n"))
	}
}

// TestCompareNewBenchmarkReportedNotGated: a benchmark added in the current
// run (e.g. kernel_stream_lines_32k in the rewrite PR) is surfaced in the
// output but cannot fail the gate until the reference is re-baselined.
func TestCompareNewBenchmarkReportedNotGated(t *testing.T) {
	ref := report(map[string]Micro{"emit_nilsink": {NsPerOp: 1, AllocsPerOp: 0}})
	cur := report(map[string]Micro{
		"emit_nilsink":            {NsPerOp: 1, AllocsPerOp: 0},
		"kernel_stream_lines_32k": {NsPerOp: 470000, AllocsPerOp: 0},
	})
	lines, failed := compare(ref, cur, 0.50)
	if failed {
		t.Fatalf("gate failed on a benchmark that has no reference:\n%s", strings.Join(lines, "\n"))
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "kernel_stream_lines_32k") || !strings.Contains(joined, "not in reference") {
		t.Fatalf("new benchmark not reported:\n%s", joined)
	}
}

// TestCompareDeterministicOrder: gate output is sorted by name so CI diffs
// between runs are stable.
func TestCompareDeterministicOrder(t *testing.T) {
	ref := report(map[string]Micro{
		"b_second": {NsPerOp: 1, AllocsPerOp: 0},
		"a_first":  {NsPerOp: 1, AllocsPerOp: 0},
	})
	lines, _ := compare(ref, ref, 0.10)
	if len(lines) != 2 || !strings.Contains(lines[0], "a_first") || !strings.Contains(lines[1], "b_second") {
		t.Fatalf("lines not sorted by benchmark name:\n%s", strings.Join(lines, "\n"))
	}
}
