package protocol

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

var (
	busCfg = cache.Config{L1Size: 16 << 10, L2Size: 1 << 20, L2Assoc: 1, Line: 128}
	dirCfg = cache.Config{L1Size: 16 << 10, L2Size: 1 << 20, L2Assoc: 4, Line: 64}
)

// slowTransactions runs a read-then-write by one processor on machine pl and
// returns how many interconnect transactions it took (every SnoopBus and
// Directory transaction classifies the access as exactly one local or remote
// miss).
func slowTransactions(t *testing.T, pl *HW) uint64 {
	t.Helper()
	as := mem.NewAddressSpace(4096, 1)
	a := as.AllocPages(4096)
	k := sim.New(pl, sim.Config{NumProcs: 1, Check: true})
	run, err := k.RunErr("read-write", func(p *sim.Proc) {
		p.Read(a)
		p.Write(a)
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	c := run.Procs[0].Counters
	return c.LocalMisses + c.RemoteMisses
}

// The acceptance criterion of the protocol-engine extraction: at least two
// coherence state machines composed with two interconnect models purely via
// configuration. The observable difference between MESI and MSI is the E
// state: a MESI sole reader fills Exclusive and later writes upgrade
// silently in its cache (one interconnect transaction total), while under
// MSI every read fills Shared, so read-then-write always pays a second
// transaction for the upgrade — on either transport.
func TestStateMachineTransportCompositions(t *testing.T) {
	as := mem.NewAddressSpace(4096, 1)
	cases := []struct {
		pl       *HW
		sts      StateKind
		trKind   string
		wantTxns uint64
	}{
		{NewBusMachine("smp", MESI, busCfg, DefaultBusParams(), 1), MESI, "bus", 1},
		{NewBusMachine("smp-msi", MSI, busCfg, DefaultBusParams(), 1), MSI, "bus", 2},
		{NewDirMachine("dsm", MESI, dirCfg, as, DefaultDirParams(), 1), MESI, "directory", 1},
		{NewDirMachine("dsm-msi", MSI, dirCfg, as, DefaultDirParams(), 1), MSI, "directory", 2},
	}
	for _, tc := range cases {
		name := tc.pl.Name()
		if tc.pl.sts != tc.sts {
			t.Errorf("%s: state machine = %v, want %v", name, tc.pl.sts, tc.sts)
		}
		var trKind string
		switch tc.pl.tr.(type) {
		case *SnoopBus:
			trKind = "bus"
		case *Directory:
			trKind = "directory"
		}
		if trKind != tc.trKind {
			t.Errorf("%s: transport %T, want %s", name, tc.pl.tr, tc.trKind)
		}
		if got := slowTransactions(t, tc.pl); got != tc.wantTxns {
			t.Errorf("%s (%s × %s): read-then-write took %d transactions, want %d",
				name, tc.sts, tc.trKind, got, tc.wantTxns)
		}
	}
}

// Under MSI no cache may ever hold a line Exclusive; the unified invariant
// checker enforces it. Force the state by hand and check it is caught.
func TestMSICheckerRejectsExclusive(t *testing.T) {
	pl := NewBusMachine("smp-msi", MSI, busCfg, DefaultBusParams(), 1)
	as := mem.NewAddressSpace(4096, 1)
	a := as.AllocPages(4096)
	k := sim.New(pl, sim.Config{NumProcs: 1})
	if _, err := k.RunErr("seed", func(p *sim.Proc) { p.Read(a); p.Barrier() }); err != nil {
		t.Fatal(err)
	}
	if err := pl.CheckInvariants(); err != nil {
		t.Fatalf("clean MSI run fails invariants: %v", err)
	}
	pl.Eng.Caches[0].SetState(a, cache.Exclusive)
	err := pl.CheckInvariants()
	if err == nil {
		t.Fatal("checker accepted an Exclusive line under MSI")
	}
}
