// Package protocol is the composable coherence-protocol framework the four
// platform models are built from. A platform is no longer a hand-cloned
// package but a *composition* of orthogonal policies:
//
//   - a coherence state machine (MSI or MESI today; the StateKind axis is
//     where MOESI's owned-state supply rules would slot in),
//   - an interconnect model (snooping bus or full-map directory) that turns
//     coherence actions into cycle costs, counters and trace events,
//   - a write/consistency policy (hardware eager coherence at line grain, or
//     HLRC twin/diff software coherence at page grain),
//   - a coherence grain (cache line for the hardware engines, page for the
//     HLRC engine, or both stacked for the two-level hierarchy).
//
// The compositions behind the paper's platforms:
//
//	smp    = HW{MESI × SnoopBus}                          (line grain)
//	dsm    = HW{MESI × Directory}                         (line grain)
//	svm    = PageEngine (HLRC)                            (page grain)
//	svmsmp = PageEngine per cluster + {MESI × SnoopBus}   (two-level)
//
// and new rows are configuration, not packages: platform.Make("smp-msi")
// and platform.Make("dsm-msi") build the MSI variants from the same two
// engines, and further machines ({MOESI, limited-directory, CXL-PCC} rows
// of the roadmap) are meant to land as new policy values here.
//
// Extracting the engines is also an audit of the clones they replace: every
// place the hand-copied platforms disagreed is now either a named policy
// choice (SnoopBus.Cluster in bus.go, which prices upgrades and picks the
// bus's counters and trace events; CountApplies in page.go) or would have
// been a bug fixed once. The invariant checker that
// previously existed in four per-platform copies is implemented once per
// engine (LineEngine.CheckInvariants, PageEngine.CheckInvariants), and the
// whole extraction is gated by byte-identity: figure output, the
// paper-claims golden suite, and the per-cell end times and result
// fingerprints generated on the pre-refactor clones are identical before
// and after. Those per-cell values are now the committed goldens campaign
// journal (campaigns/goldens.journal), which
// internal/check.TestEngineMatchesPreRefactorGoldens re-simulates.
package protocol

// StateKind selects the coherence state machine of a line-grained engine.
type StateKind int

const (
	// MESI adds the Exclusive state: a read miss that finds no other sharer
	// fills Exclusive, so the first subsequent write upgrades silently in
	// the cache with no interconnect transaction.
	MESI StateKind = iota
	// MSI has no Exclusive state: every read fills Shared, so the first
	// write to any line — even one cached by nobody else — pays an upgrade
	// transaction on the interconnect.
	MSI
)

// String names the state machine for composition labels.
func (s StateKind) String() string {
	switch s {
	case MESI:
		return "mesi"
	case MSI:
		return "msi"
	}
	return "unknown"
}
