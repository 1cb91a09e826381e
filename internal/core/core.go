// Package core defines the paper's central abstraction: applications that
// exist in several restructured versions, each belonging to one of the
// structured optimization classes of §3 — padding & alignment (P/A),
// reorganization of major data structures (DS), and algorithmic change
// (Alg) — and that can be executed unchanged on any of the shared address
// space platform models to study performance portability.
package core

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Class is an optimization class from the paper's methodology (§3).
type Class int

const (
	// Orig is the original algorithm we began with (well-tuned for
	// hardware cache coherence, per SPLASH-2).
	Orig Class = iota
	// PA is padding and alignment of data structures to the granularity
	// of communication/coherence.
	PA
	// DS is reorganization of major data structures (e.g. 2-d to 4-d
	// arrays, organizing records by field).
	DS
	// Alg is algorithm redesign: different synchronization, partitioning,
	// or sequential algorithm for phases of the computation.
	Alg
)

// String returns the paper's abbreviation for the class.
func (c Class) String() string {
	switch c {
	case Orig:
		return "Orig"
	case PA:
		return "P/A"
	case DS:
		return "DS"
	case Alg:
		return "Alg"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Version describes one restructured variant of an application.
type Version struct {
	// Name is the variant's short identifier, e.g. "orig", "pad", "4d",
	// "rows", "spatial".
	Name string
	// Class is the optimization class the variant belongs to.
	Class Class
	// Desc is a one-line description of the restructuring.
	Desc string
}

// Instance is one ready-to-run configuration of an application version: its
// data laid out in a simulated address space for a particular processor
// count and problem scale.
type Instance interface {
	// Body is the SPMD process body, run once per simulated processor.
	Body(p *sim.Proc)
	// Verify checks the computed result against a sequential reference
	// after the run completes.
	Verify() error
	// Fingerprint reduces the computed result to one canonical 64-bit
	// hash, called after the run alongside Verify. The determinism
	// harness compares fingerprints across repeated runs, platforms,
	// restructured versions and processor counts, so the result must be
	// bit-identical across those dimensions — in particular, every
	// floating-point reduction must fold in a fixed order independent of
	// the simulated interleaving.
	Fingerprint() uint64
}

// App is an application with several restructured versions.
type App interface {
	// Name is the application's identifier ("lu", "ocean", ...).
	Name() string
	// Versions lists the available variants, original first.
	Versions() []Version
	// Build lays out the version's data structures in as and returns a
	// runnable instance. scale >= 0.25 scales the problem size (1.0 is
	// the package default, chosen to simulate in seconds; the paper's
	// full sizes correspond to larger scales).
	Build(version string, scale float64, as *mem.AddressSpace, np int) (Instance, error)
}

var (
	registry  = map[string]App{}
	extension = map[string]bool{}
)

// Register adds an application to the global registry; called from app
// package init functions.
func Register(a App) {
	if _, dup := registry[a.Name()]; dup {
		panic("core: duplicate app " + a.Name())
	}
	registry[a.Name()] = a
}

// RegisterExtension adds a post-paper application — the irregular modern
// workloads of ROADMAP item 3 (key-value service, graph BFS,
// producer-consumer pipeline). Extension apps are available to Lookup,
// sweeps, and campaigns exactly like the paper's seven, but PaperApps
// excludes them, so the paper-figure enumerations (Figure 2, Figure 16,
// the §4 headline progressions, the claims suite) keep reproducing the
// paper's own application set.
func RegisterExtension(a App) {
	Register(a)
	extension[a.Name()] = true
}

// IsExtension reports whether name was registered with RegisterExtension.
func IsExtension(name string) bool { return extension[name] }

// PaperApps returns the registered paper applications (extensions
// excluded), sorted.
func PaperApps() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		if !extension[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Lookup returns the registered application with the given name.
func Lookup(name string) (App, error) {
	a, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown app %q (have %v)", name, Apps())
	}
	return a, nil
}

// Apps returns the registered application names, sorted.
func Apps() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// OrigVersion returns the application's original version — the first of
// its Versions and the paper's speedup denominator source: "orig" for most
// apps, "splash" for barnes. An unknown app falls back to "orig", which
// then fails at execution with Lookup's error, exactly as a hand-written
// spec naming it would.
func OrigVersion(app string) string {
	a, ok := registry[app]
	if !ok {
		return "orig"
	}
	return a.Versions()[0].Name
}

// FindVersion returns the Version metadata for an app variant. The error
// for an unknown variant lists the app's available versions, so a typo'd
// multi-variant campaign spec names the fix instead of just the failure.
func FindVersion(a App, name string) (Version, error) {
	vs := a.Versions()
	for _, v := range vs {
		if v.Name == name {
			return v, nil
		}
	}
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Name
	}
	return Version{}, fmt.Errorf("core: app %s has no version %q (have %v)", a.Name(), name, names)
}
