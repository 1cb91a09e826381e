// Package platform assembles the machine models as named presets. The
// paper's three platforms are "svm" (page-grained shared virtual memory,
// HLRC), "smp" (bus-based hardware cache coherence, SGI Challenge-like) and
// "dsm" (CC-NUMA hardware cache coherence with a distributed directory).
// Beyond them: the §7 future-work hierarchy "svmsmp" (SMP nodes connected
// by SVM) and the protocol-engine compositions "smp-msi" and "dsm-msi"
// (the hardware machines with the coherence state machine swapped to MSI).
//
// Every preset is one row of the presets table; the name lists, the
// hardware-coherence classification and Make all read that table.
package platform

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/svm"
	"repro/internal/svmsmp"
)

// PageSize is the allocation/placement granularity shared by all presets:
// the SVM page size (4 KB), which the DSM preset also uses as its memory
// placement granularity.
const PageSize = 4096

// preset is one row of the preset table.
type preset struct {
	name string
	// hw marks hardware cache coherence (fine-grained), as opposed to
	// page-grained software coherence.
	hw bool
	// paper marks the paper's three platforms, which the figures iterate
	// over.
	paper bool
	// cache is the per-processor hierarchy; its tag range bounds the
	// address space the preset can simulate.
	cache cache.Config
	build func(name string, as *mem.AddressSpace, np int) sim.Platform
}

// presets lists every preset, the paper's three platforms first and in
// paper order.
var presets = []preset{
	{"svm", false, true, svm.CacheConfig, func(_ string, as *mem.AddressSpace, np int) sim.Platform {
		return svm.New(as, protocol.DefaultHLRCParams(), np)
	}},
	{"smp", true, true, protocol.ChallengeCache, busMachine(protocol.MESI)},
	{"dsm", true, true, protocol.DASHCache, dirMachine(protocol.MESI)},
	// The paper's §7 future-work hierarchy: SMP nodes of four processors
	// connected by SVM.
	{"svmsmp", false, false, protocol.ChallengeCache, func(_ string, as *mem.AddressSpace, np int) sim.Platform {
		return svmsmp.New(as, np)
	}},
	// The hardware machines with the MESI axis swapped for plain MSI: every
	// read fills Shared, so read-then-write pays an upgrade even with no
	// other sharer.
	{"smp-msi", true, false, protocol.ChallengeCache, busMachine(protocol.MSI)},
	{"dsm-msi", true, false, protocol.DASHCache, dirMachine(protocol.MSI)},
}

// busMachine builds the Challenge-class SMP: {sts × SnoopBus} over
// centralized memory, so the address space's page homes are ignored; its
// span still sizes the caches.
func busMachine(sts protocol.StateKind) func(string, *mem.AddressSpace, int) sim.Platform {
	return func(name string, as *mem.AddressSpace, np int) sim.Platform {
		return protocol.NewBusMachine(name, sts, protocol.ChallengeCache, as, protocol.DefaultBusParams(), np)
	}
}

// dirMachine builds the DASH-like CC-NUMA machine: {sts × Directory} over
// the address space's page homes.
func dirMachine(sts protocol.StateKind) func(string, *mem.AddressSpace, int) sim.Platform {
	return func(name string, as *mem.AddressSpace, np int) sim.Platform {
		return protocol.NewDirMachine(name, sts, protocol.DASHCache, as, protocol.DefaultDirParams(), np)
	}
}

// AllPresets lists every preset Make can build, in table order. The
// cross-platform differential suite and the irregular workload campaign
// sweep all of them.
var AllPresets = presetNames(func(preset) bool { return true })

// Names lists the paper's three platforms in paper order (a prefix of
// AllPresets); the figures iterate over these.
var Names = presetNames(func(p preset) bool { return p.paper })

func presetNames(keep func(preset) bool) []string {
	var names []string
	for _, p := range presets {
		if keep(p) {
			names = append(names, p.name)
		}
	}
	return names
}

func lookup(name string) (preset, bool) {
	for _, p := range presets {
		if p.name == name {
			return p, true
		}
	}
	return preset{}, false
}

// Known reports whether name is a preset Make can build. Spec validation
// (harness.Spec.Validate) uses it to reject a typo'd platform before a
// command or campaign simulates, or journals, cells that would all fail.
func Known(name string) bool {
	_, ok := lookup(name)
	return ok
}

// Make builds the named platform over the given address space. An address
// space that reaches past the preset's cache tag range is a *RangeError,
// before anything is built: the caches would otherwise panic on the first
// reference past the range, in the middle of a run.
func Make(name string, as *mem.AddressSpace, np int) (sim.Platform, error) {
	p, ok := lookup(name)
	if !ok {
		return nil, fmt.Errorf("platform: unknown preset %q (want one of %v)", name, AllPresets)
	}
	if err := p.fits(as.End()); err != nil {
		return nil, err
	}
	return p.build(name, as, np), nil
}

// RangeError reports an address space larger than a preset's per-processor
// caches can hold tags for.
type RangeError struct {
	Preset string
	Size   uint64 // the address space's end, in bytes
	Limit  uint64 // the first address past the preset's tag range
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("platform: preset %q cannot simulate a %d B (%.2f GiB) address space: its cache tag arrays hold addresses below %d B (%.2f GiB)",
		e.Preset, e.Size, float64(e.Size)/(1<<30), e.Limit, float64(e.Limit)/(1<<30))
}

// fits rejects an address space that ends past p's cache tag range.
func (p preset) fits(end uint64) error {
	if lim := p.cache.Limit(); end > lim {
		return &RangeError{Preset: p.name, Size: end, Limit: lim}
	}
	return nil
}

// IsHardwareCoherent reports whether the preset models hardware cache
// coherence (fine-grained), as opposed to page-grained software coherence.
func IsHardwareCoherent(name string) bool {
	p, _ := lookup(name)
	return p.hw
}
