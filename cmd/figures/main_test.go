package main

import (
	"testing"

	"repro/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// A -workers below 1 is a usage error, not a silent GOMAXPROCS.
func TestBadWorkersIsUsageError(t *testing.T) {
	for _, w := range []string{"0", "-3"} {
		clitest.WantUsageError(t, "bad -workers "+w, "-fig", "fig2", "-p", "4", "-scale", "0.25", "-workers", w)
	}
}
