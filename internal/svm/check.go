package svm

import "repro/internal/sim"

// CheckInvariants implements sim.InvariantChecked: the HLRC protocol
// invariants, audited once by the page engine for every composition (see
// protocol.PageEngine.CheckInvariants for the list).
func (s *Platform) CheckInvariants() error { return s.eng.CheckInvariants() }

var _ sim.InvariantChecked = (*Platform)(nil)
