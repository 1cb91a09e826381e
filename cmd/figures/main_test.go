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

// An unknown -fig ID is a usage error like the other bad flags; the
// figure IDs are fig2..fig17, not bare numbers.
func TestUnknownFigureIsUsageError(t *testing.T) {
	for _, id := range []string{"2", "fig1", "fig99"} {
		clitest.WantUsageError(t, "unknown figure", "-fig", id)
	}
}
