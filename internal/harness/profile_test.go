package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

// labelApp records the goroutine profile from inside its body, where the
// simulated processors run as continuations of the executing goroutine.
type labelApp struct{}

var labelDump string

func (labelApp) Name() string { return "zz-labels" }

func (labelApp) Versions() []core.Version {
	return []core.Version{{Name: "orig", Class: core.Orig, Desc: "dumps goroutine labels from proc 0"}}
}

func (labelApp) Build(string, float64, *mem.AddressSpace, int) (core.Instance, error) {
	return labelInstance{}, nil
}

type labelInstance struct{}

func (labelInstance) Body(p *sim.Proc) {
	p.Compute(100)
	if p.ID() == 0 {
		var b bytes.Buffer
		pprof.Lookup("goroutine").WriteTo(&b, 1)
		labelDump = b.String()
	}
	p.Barrier()
}

func (labelInstance) Verify() error       { return nil }
func (labelInstance) Fingerprint() uint64 { return 0 }

func init() { core.Register(labelApp{}) }

func TestExecuteLabelsCell(t *testing.T) {
	labelDump = ""
	if _, err := Execute(Spec{App: "zz-labels", Version: "orig", Platform: "smp", NumProcs: 2, Scale: 1}); err != nil {
		t.Fatal(err)
	}
	for _, kv := range []string{`"app":"zz-labels"`, `"version":"orig"`, `"platform":"smp"`, `"procs":"2"`} {
		if !strings.Contains(labelDump, kv) {
			t.Errorf("goroutine profile taken inside the body lacks label %s", kv)
		}
	}
}

func TestStartCPUProfile(t *testing.T) {
	stop, err := StartCPUProfile("")
	if err != nil || stop() != nil {
		t.Fatalf("empty path: err = %v", err)
	}
	path := filepath.Join(t.TempDir(), "cpu.out")
	if stop, err = StartCPUProfile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(Spec{App: "radix", Version: "orig", Platform: "svm", NumProcs: 2, Scale: 0.125}); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("profile %s not written: %v", path, err)
	}
	if _, err := StartCPUProfile(filepath.Join(path, "missing", "cpu.out")); err == nil {
		t.Error("unwritable path: no error")
	}
}
