package main

import (
	"fmt"
	"reflect"
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

func TestParseProcs(t *testing.T) {
	good := []struct {
		in   string
		want []int
	}{
		{"1,2,4,8,16", []int{1, 2, 4, 8, 16}},
		{"16", []int{16}},
		{" 8 ,\t4 ", []int{8, 4}}, // whitespace tolerated, order preserved
	}
	for _, c := range good {
		got, err := parseProcs(c.in)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseProcs(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	bad := []string{"", "0", "-1", "two", "1,,2", "1,2,1", "4,0x8", "1e3"}
	for _, in := range bad {
		if got, err := parseProcs(in); err == nil {
			t.Errorf("parseProcs(%q) = %v; want error", in, got)
		}
	}
}

// FuzzParseProcs pins the -procs contract: never panic, and any accepted
// list contains only positive, duplicate-free counts that round-trip through
// the same syntax.
func FuzzParseProcs(f *testing.F) {
	for _, s := range []string{"1,2,4,8,16", "16", "", "1,1", " 8 , 4 ", "0", "-3,2", "999999999999999999999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		counts, err := parseProcs(s)
		if err != nil {
			return
		}
		if len(counts) == 0 {
			t.Fatalf("parseProcs(%q) accepted an empty list", s)
		}
		seen := map[int]bool{}
		parts := make([]string, len(counts))
		for i, n := range counts {
			if n < 1 {
				t.Fatalf("parseProcs(%q) accepted non-positive count %d", s, n)
			}
			if seen[n] {
				t.Fatalf("parseProcs(%q) accepted duplicate count %d", s, n)
			}
			seen[n] = true
			parts[i] = fmt.Sprint(n)
		}
		again, err := parseProcs(strings.Join(parts, ","))
		if err != nil || !reflect.DeepEqual(again, counts) {
			t.Fatalf("parseProcs round-trip of %v: got %v, %v", counts, again, err)
		}
	})
}
