// Package platform assembles the three machine models of the paper as named
// presets: "svm" (page-grained shared virtual memory, HLRC), "smp" (bus-based
// hardware cache coherence, SGI Challenge-like) and "dsm" (CC-NUMA hardware
// cache coherence with a distributed directory).
package platform

import (
	"fmt"

	"repro/internal/dsm"
	"repro/internal/mem"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/smp"
	"repro/internal/svm"
	"repro/internal/svmsmp"
)

// Names lists the paper's three platforms in paper order; the figures
// iterate over these. Additional presets available through Make: the §7
// future-work hierarchy "svmsmp" (SMP nodes connected by SVM) and the
// protocol-engine compositions "smp-msi" and "dsm-msi" (the hardware
// machines with the coherence state machine swapped to MSI).
var Names = []string{"svm", "smp", "dsm"}

// PageSize is the allocation/placement granularity shared by all presets:
// the SVM page size (4 KB), which the DSM preset also uses as its memory
// placement granularity.
const PageSize = 4096

// AllPresets lists every preset Make can build: the paper's three
// platforms first, then the two-level hierarchy and the MSI protocol-engine
// compositions. The cross-platform differential suite and the irregular
// workload campaign sweep all of them.
var AllPresets = []string{"svm", "smp", "dsm", "svmsmp", "smp-msi", "dsm-msi"}

// Known reports whether name is a preset Make can build. Campaign and
// sweep spec validation use it to reject a typo'd platform before
// enumerating (and journaling) thousands of cells that would all fail.
func Known(name string) bool {
	for _, n := range AllPresets {
		if n == name {
			return true
		}
	}
	return false
}

// Make builds the named platform over the given address space.
func Make(name string, as *mem.AddressSpace, np int) (sim.Platform, error) {
	switch name {
	case "svm":
		return svm.New(as, svm.DefaultParams(), np), nil
	case "dsm":
		return dsm.New(as, dsm.DefaultParams(), np), nil
	case "smp":
		return smp.New(as, smp.DefaultParams(), np), nil
	case "svmsmp":
		// The paper's §7 future-work hierarchy: SMP nodes of four
		// processors connected by SVM.
		return svmsmp.New(as, svmsmp.DefaultParams(), np), nil
	case "smp-msi":
		// The Challenge machine with the MESI axis swapped for plain MSI:
		// a new protocol-engine composition, not a new platform package.
		return protocol.NewBusMachine("smp-msi", protocol.MSI, smp.CacheConfig, smp.DefaultParams(), np), nil
	case "dsm-msi":
		// The CC-NUMA machine over MSI — every read fills Shared, so
		// read-then-write pays an upgrade even with no other sharer.
		return protocol.NewDirMachine("dsm-msi", protocol.MSI, dsm.CacheConfig, as, dsm.DefaultParams(), np), nil
	default:
		return nil, fmt.Errorf("platform: unknown preset %q (want one of %v)", name, AllPresets)
	}
}

// IsHardwareCoherent reports whether the preset models hardware cache
// coherence (fine-grained), as opposed to page-grained software coherence.
func IsHardwareCoherent(name string) bool {
	switch name {
	case "smp", "dsm", "smp-msi", "dsm-msi":
		return true
	}
	return false
}
