package sim

import (
	"fmt"
	"strings"
)

// ProcPanicError reports that a simulated processor's body panicked. The
// kernel recovers the panic, unwinds every other processor goroutine, and
// returns this error from RunErr instead of crashing the host process — one
// misbehaving application version must not take down a whole figure run.
type ProcPanicError struct {
	// Proc is the simulated processor whose body panicked.
	Proc int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at the recovery point.
	Stack string
}

func (e *ProcPanicError) Error() string {
	return fmt.Sprintf("sim: processor %d panicked: %v", e.Proc, e.Value)
}

// DeadlockError reports that no processor was runnable before every body
// returned: all live processors are parked on locks or the barrier with
// nobody left to wake them.
type DeadlockError struct {
	// Dump is the kernel state at the point of deadlock: per-processor
	// state and clock, barrier arrival count, and held/contended locks.
	Dump string
}

func (e *DeadlockError) Error() string {
	return "sim: deadlock — no runnable processor\n" + strings.TrimSuffix(e.Dump, "\n")
}

// ConfigError reports a Config that RunErr refuses to run, such as an
// explicit BarrierManager naming a processor that does not exist. Earlier
// kernels silently clamped such values into range, which quietly moved the
// paper's barrier-manager placement analysis onto a different processor.
type ConfigError struct {
	// Field is the Config field that is invalid.
	Field string
	// Detail describes why the value is rejected.
	Detail string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid config: %s: %s", e.Field, e.Detail)
}

// abortSim is the sentinel panic used to unwind processor continuations
// when a run aborts; the continuation wrapper recovers it silently.
type abortSim struct{}

// inlineAbort carries a structured simulation error (today only a
// *DeadlockError from parking the only processor) out of a single-processor
// body running inline on the kernel goroutine.
type inlineAbort struct{ err error }
