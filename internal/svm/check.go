package svm

import (
	"fmt"

	"repro/internal/sim"
)

// CheckInvariants implements sim.InvariantChecked: the HLRC protocol
// invariants, audited once by the page engine for every composition (see
// protocol.PageEngine.CheckInvariants for the list), then every node's cache
// hierarchy (cache.Hierarchy.Check). PageArrived and DiffApplied skip the
// fill-filter groups a node's caches hold no line of, which is sound only
// while the hierarchy keeps inclusion and its filter.
func (s *Platform) CheckInvariants() error {
	if err := s.eng.CheckInvariants(); err != nil {
		return err
	}
	for n, h := range s.caches {
		if err := h.Check(); err != nil {
			return fmt.Errorf("svm: node %d: %w", n, err)
		}
	}
	return nil
}

var _ sim.InvariantChecked = (*Platform)(nil)
