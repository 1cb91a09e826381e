package main

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// A -workers below 1 is a usage error, not a silent GOMAXPROCS.
func TestBadWorkersIsUsageError(t *testing.T) {
	for _, w := range []string{"0", "-3"} {
		clitest.WantUsageError(t, "bad -workers "+w,
			"-app", "ocean", "-version", "rows", "-platform", "svm", "-procs", "1", "-scale", "0.25", "-workers", w)
	}
}

// -procs end to end: the grammar is campaign.ParseProcs's (tested there);
// here a good list sweeps exactly its counts, in the order given, and a bad
// one is a usage error before anything runs.
func TestParseProcs(t *testing.T) {
	row := regexp.MustCompile(`(?m)^\s+(\d+)\s+\S+$`)
	good := []struct {
		in   string
		want string
	}{
		{"1,2", "1 2"},
		{"2", "2"},
		{" 4 ,\t2 ", "4 2"}, // whitespace tolerated, order preserved
	}
	for _, c := range good {
		code, stdout, stderr := clitest.Run(t,
			"-app", "ocean", "-version", "rows", "-platform", "svm", "-procs", c.in, "-scale", "0.25", "-workers", "1")
		if code != 0 {
			t.Errorf("-procs %q: exit %d, stderr %q; want 0", c.in, code, stderr)
			continue
		}
		var got []string
		for _, m := range row.FindAllStringSubmatch(stdout, -1) {
			got = append(got, m[1])
		}
		if strings.Join(got, " ") != c.want {
			t.Errorf("-procs %q: table rows P = %v; want %s\n%s", c.in, got, c.want, stdout)
		}
	}
	for _, in := range []string{"", "0", "-1", "two", "1,,2", "1,2,1", "4,0x8", "1e3"} {
		clitest.WantUsageError(t, "processor count",
			"-app", "ocean", "-version", "rows", "-platform", "svm", "-procs", in, "-scale", "0.25")
	}
}
