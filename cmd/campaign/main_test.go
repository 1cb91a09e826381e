package main

import (
	"testing"

	"repro/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// The flags are checked before the spec is read, so a missing spec file
// shows which check fired: the bad flag is named, and good flags fall
// through to the spec error.

// A -workers below 1 is a usage error, not a silent GOMAXPROCS.
func TestBadWorkersIsUsageError(t *testing.T) {
	for _, w := range []string{"0", "-3"} {
		clitest.WantUsageError(t, "bad -workers "+w, "-spec", "missing.json", "-workers", w)
	}
	clitest.WantUsageError(t, "missing.json", "-spec", "missing.json", "-workers", "1")
}

// A negative -max-cells is a usage error, not a silent run of every cell.
func TestBadMaxCellsIsUsageError(t *testing.T) {
	clitest.WantUsageError(t, "bad -max-cells -1", "-spec", "missing.json", "-max-cells", "-1")
	clitest.WantUsageError(t, "missing.json", "-spec", "missing.json", "-max-cells", "0")
}
