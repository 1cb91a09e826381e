package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
)

// Chrome streams the event stream as Chrome trace-event JSON (the JSON Array
// Format), loadable in Perfetto or chrome://tracing. Processor events render
// on one track per simulated processor (process "processors"); resource
// kinds render on bus/NIC/directory tracks under a separate "resources"
// process. Timestamps are virtual cycles written into the format's
// microsecond field, so on-screen times read as cycles.
//
// Chrome also implements Sampler: interval samples of the per-processor
// breakdown categories, taken every SampleEvery cycles, become counter ("C")
// tracks, one per processor, whose series are the per-interval cycles of
// each category — the paper's per-processor breakdown bars rendered over
// time.
//
// Close must be called to terminate the JSON array; the writer is not closed.
type Chrome struct {
	bw    *bufio.Writer
	every uint64 // sample interval in cycles; 0 takes no samples
	n     int
	err   error
	named map[uint64]bool               // (pid<<32 | tid) with metadata written
	last  [][stats.NumCategories]uint64 // previous sample, for per-interval deltas
}

// Resource track tid bases within the "resources" process (pid 1): the
// resource's node id is added to its kind's base.
const (
	chromeBusBase = 1000
	chromeNICBase = 2000
	chromeDirBase = 3000
)

// NewChrome creates an exporter writing to w that asks for a breakdown
// sample every `every` cycles of virtual time (0: no samples).
func NewChrome(w io.Writer, every uint64) *Chrome {
	c := &Chrome{bw: bufio.NewWriter(w), every: every, named: map[uint64]bool{}}
	_, c.err = c.bw.WriteString("[")
	return c
}

// obj writes one JSON object into the array.
func (c *Chrome) obj(format string, args ...any) {
	if c.err != nil {
		return
	}
	sep := ",\n"
	if c.n == 0 {
		sep = "\n"
	}
	c.n++
	if _, err := fmt.Fprintf(c.bw, sep+format, args...); err != nil {
		c.err = err
	}
}

// track returns the (pid, tid, track name) for an event.
func track(e Event) (pid, tid int, name string) {
	switch e.Kind {
	case BusOccupy:
		return 1, chromeBusBase + int(e.Proc), fmt.Sprintf("bus %d", e.Proc)
	case NICOccupy:
		return 1, chromeNICBase + int(e.Proc), fmt.Sprintf("nic %d", e.Proc)
	case DirOccupy:
		return 1, chromeDirBase + int(e.Proc), fmt.Sprintf("dir %d", e.Proc)
	default:
		return 0, int(e.Proc), fmt.Sprintf("proc %d", e.Proc)
	}
}

// ensureTrack writes process_name/thread_name metadata once per track.
func (c *Chrome) ensureTrack(pid, tid int, name string) {
	// Process keys live in a separate bit so (pid=0, tid=0) cannot collide
	// with pid 0's process entry.
	if pkey := uint64(1)<<63 | uint64(pid); !c.named[pkey] {
		c.named[pkey] = true
		pname := "processors"
		if pid == 1 {
			pname = "resources"
		}
		c.obj(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`, pid, pname)
	}
	key := uint64(pid)<<32 | uint64(uint32(tid))
	if !c.named[key] {
		c.named[key] = true
		c.obj(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`, pid, tid, name)
		c.obj(`{"name":"thread_sort_index","ph":"M","pid":%d,"tid":%d,"args":{"sort_index":%d}}`, pid, tid, tid)
	}
}

// Emit implements Sink: one complete ("X") event per protocol event.
func (c *Chrome) Emit(e Event) {
	pid, tid, name := track(e)
	c.ensureTrack(pid, tid, name)
	c.obj(`{"name":%q,"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"args":{%q:%d,"cost":%d}}`,
		e.Kind.String(), pid, tid, e.Time, e.Cost, e.Kind.ArgName(), e.Arg, e.Cost)
}

// Sample implements Sampler: one counter event per processor whose series
// are the cycles each breakdown category gained since the previous sample.
func (c *Chrome) Sample(now uint64, procs []stats.Proc) {
	if len(c.last) < len(procs) {
		last := make([][stats.NumCategories]uint64, len(procs))
		copy(last, c.last)
		c.last = last
	}
	for i := range procs {
		c.ensureTrack(0, i, fmt.Sprintf("proc %d", i))
		var args strings.Builder
		for cat := stats.Category(0); cat < stats.NumCategories; cat++ {
			if cat > 0 {
				args.WriteByte(',')
			}
			fmt.Fprintf(&args, "%q:%d", cat.String(), procs[i].Cycles[cat]-c.last[i][cat])
		}
		c.last[i] = procs[i].Cycles
		c.obj(`{"name":"breakdown p%d","ph":"C","pid":0,"tid":%d,"ts":%d,"args":{%s}}`,
			i, i, now, args.String())
	}
}

// SampleEvery implements Sampler.
func (c *Chrome) SampleEvery() uint64 { return c.every }

// Close terminates the JSON array and flushes buffered output. It returns
// the first error encountered while writing.
func (c *Chrome) Close() error {
	if c.err == nil {
		_, c.err = c.bw.WriteString("\n]\n")
	}
	if err := c.bw.Flush(); c.err == nil {
		c.err = err
	}
	return c.err
}

var (
	_ Sink    = (*Chrome)(nil)
	_ Sampler = (*Chrome)(nil)
)
