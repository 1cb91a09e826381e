package core_test

import (
	"testing"

	_ "repro/internal/apps"
	"repro/internal/core"
)

func TestOrigVersion(t *testing.T) {
	if v := core.OrigVersion("lu"); v != "orig" {
		t.Errorf("OrigVersion(lu) = %q", v)
	}
	if v := core.OrigVersion("barnes"); v != "splash" {
		t.Errorf("OrigVersion(barnes) = %q, want splash", v)
	}
	if v := core.OrigVersion("nope"); v != "orig" {
		t.Errorf("OrigVersion(nope) = %q, want orig fallback", v)
	}
}
