package trace

// Ring keeps the most recent events in a fixed-size buffer. The kernel
// installs one (sim.Kernel.SetTraceRing) so that when a simulated run dies —
// a processor body panic or a synchronization deadlock — the error carries
// the protocol events leading up to the failure, making contained failures
// self-diagnosing.
type Ring struct {
	buf  []Event
	next int
}

// NewRing creates a ring holding the last n events (n >= 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, 0, n)}
}

// Emit implements Sink.
func (r *Ring) Emit(e Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
	}
	r.next = (r.next + 1) % cap(r.buf)
}

// Snapshot returns the buffered events oldest first.
func (r *Ring) Snapshot() []Event {
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Reset empties the ring (between runs).
func (r *Ring) Reset() {
	r.buf = r.buf[:0]
	r.next = 0
}

var _ Sink = (*Ring)(nil)
