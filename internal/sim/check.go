package sim

import (
	"fmt"
	"strings"
)

// InvariantChecked is implemented by platforms that can audit their own
// protocol state. When Config.Check is set, the kernel calls CheckInvariants
// at exponentially spaced scheduling points (so corruption introduced early
// is caught early, while steady-state sweep cost stays logarithmic in run
// length) and once more after the last processor finishes. The platform must
// return an error describing the first violated invariant, or nil.
type InvariantChecked interface {
	CheckInvariants() error
}

// InvariantError reports a violated runtime invariant detected with
// Config.Check enabled: a non-monotone scheduler pick, a platform protocol
// state inconsistency, or a broken accounting identity.
type InvariantError struct {
	// Where locates the check that fired: "scheduler", "platform", or
	// "accounting".
	Where string
	// Detail describes the violated invariant.
	Detail string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("sim: invariant violated (%s): %s", e.Where, strings.TrimSuffix(e.Detail, "\n"))
}

// invariantErr builds a contained InvariantError.
func invariantErr(where, format string, args ...any) *InvariantError {
	return &InvariantError{Where: where, Detail: fmt.Sprintf(format, args...)}
}

// checkTick runs the per-pick invariants: the picked processor's clock is the
// minimum over ready processors, i.e. the floor of global virtual time, and
// that floor must never move backwards. Platform sweeps run at picks 1024,
// 2048, 4096, ... so the cost is O(log picks) sweeps per run.
func (k *Kernel) checkTick(p *Proc) error {
	if p.clock < k.lastPickClock {
		return invariantErr("scheduler",
			"virtual-time floor moved backwards: picked proc %d at clock %d after floor %d",
			p.id, p.clock, k.lastPickClock)
	}
	k.lastPickClock = p.clock
	k.picks++
	if k.picks >= k.nextCheck {
		k.nextCheck *= 2
		return k.checkPlatform()
	}
	return nil
}

// checkPlatform sweeps the platform's protocol invariants, if it has any.
func (k *Kernel) checkPlatform() error {
	ic, ok := k.plat.(InvariantChecked)
	if !ok {
		return nil
	}
	if err := ic.CheckInvariants(); err != nil {
		return invariantErr("platform", "%v", err)
	}
	return nil
}

// checkFinal runs the end-of-run invariants: one last platform sweep, then
// the accounting identity — every processor's breakdown categories must sum
// exactly to its final virtual clock, and EndTime must be the maximum clock.
func (k *Kernel) checkFinal() error {
	if err := k.checkPlatform(); err != nil {
		return err
	}
	clocks := make([]uint64, len(k.procs))
	for i := range k.procs {
		clocks[i] = k.procs[i].clock
	}
	if err := k.run.CheckAccounting(clocks); err != nil {
		return invariantErr("accounting", "%v", err)
	}
	return nil
}
