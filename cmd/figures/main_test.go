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

// -all, -fig and -headline each pick what to render; asking for two is a
// usage error, not a silent preference for one of them. The small -p and
// -scale keep a regression cheap to run.
func TestConflictingModesAreUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-all", "-fig", "fig99"},
		{"-headline", "-fig", "nonsense"},
		{"-all", "-headline"},
		{"-all", "-fig", "fig2", "-headline"},
	} {
		clitest.WantUsageError(t, "mutually exclusive", append(args, "-p", "2", "-scale", "0.1")...)
	}
}

// A -scale that overflows to +Inf on top of an app's base scale (lu's is 2)
// is a usage error naming the -scale as given, not a cell run at +Inf.
func TestOverflowingScaleIsUsageError(t *testing.T) {
	clitest.WantUsageError(t, "bad scale 1e+308 (times lu's base scale 2", "-fig", "fig3", "-p", "2", "-scale", "1e308")
}
