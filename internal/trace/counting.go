package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Counting aggregates the event stream into per-kind, per-page and per-lock
// totals, and renders them as the hot-page / hot-lock report (Report) — the
// performance-debugging view the paper wishes real SVM systems had (§6).
// It is an ordinary Sink, so installing one through Kernel.SetTraceSink
// (harness.Spec.TraceSink) profiles a run on any platform: page rows come
// from the page-grained protocol's events, lock rows from the kernel's.
type Counting struct {
	np        int
	kindCount [NumKinds]uint64
	kindCost  [NumKinds]uint64

	pageFetch   map[uint64][]uint64 // page -> per-proc fetch counts
	pageDiff    map[uint64]uint64   // page -> diffs created against its home copy
	pageWriters map[uint64][]uint64 // page -> bit set of writer procs, np bits
	pageHome    map[uint64]int      // page -> home domain, from NICOccupy
	lockAcq     map[uint64]uint64   // lock -> grants
	lockXfer    map[uint64]uint64   // lock -> grants from a different holder
}

// NewCounting creates a counting sink for np processors.
func NewCounting(np int) *Counting {
	return &Counting{
		np:          np,
		pageFetch:   map[uint64][]uint64{},
		pageDiff:    map[uint64]uint64{},
		pageWriters: map[uint64][]uint64{},
		pageHome:    map[uint64]int{},
		lockAcq:     map[uint64]uint64{},
		lockXfer:    map[uint64]uint64{},
	}
}

// slot returns m[k], creating it as n zero words on first use.
func slot(m map[uint64][]uint64, k uint64, n int) []uint64 {
	v := m[k]
	if v == nil {
		v = make([]uint64, n)
		m[k] = v
	}
	return v
}

// Emit implements Sink.
func (c *Counting) Emit(e Event) {
	if e.Kind >= NumKinds {
		return
	}
	c.kindCount[e.Kind]++
	c.kindCost[e.Kind] += e.Cost
	inRange := e.Proc >= 0 && int(e.Proc) < c.np
	switch e.Kind {
	case PageFetch:
		v := slot(c.pageFetch, e.Arg, c.np)
		if inRange {
			v[e.Proc]++
		}
	case DiffCreate:
		c.pageDiff[e.Arg]++
	case WriteTrap:
		w := slot(c.pageWriters, e.Arg, (c.np+63)/64)
		if inRange {
			w[e.Proc/64] |= 1 << uint(e.Proc%64)
		}
	case NICOccupy:
		c.pageHome[e.Arg] = int(e.Proc)
	case LockGrant:
		c.lockAcq[e.Arg]++
	case LockTransfer:
		c.lockXfer[e.Arg]++
	}
}

// Count returns how many events of kind k were emitted.
func (c *Counting) Count(k Kind) uint64 {
	if k >= NumKinds {
		return 0
	}
	return c.kindCount[k]
}

// Cost returns the total Cost cycles over all events of kind k.
func (c *Counting) Cost(k Kind) uint64 {
	if k >= NumKinds {
		return 0
	}
	return c.kindCost[k]
}

// PageTotals summarizes the traffic to one page over a run.
type PageTotals struct {
	Page    uint64
	Home    int    // home domain: a node on svm, a cluster on svmsmp
	Fetches uint64 // remote fetches of this page, all processors
	Diffs   uint64 // diffs created against its home copy
	Writers int    // distinct processors that dirtied it
	MaxProc uint64 // largest per-processor fetch count (imbalance hint)
}

// LockTotals summarizes the traffic to one lock over a run.
type LockTotals struct {
	Lock      int
	Acquires  uint64
	Transfers uint64 // acquisitions by a different processor than the releaser
}

// PageTotals returns every fetched page's totals, most-fetched first (ties
// by page number, so the order is deterministic).
func (c *Counting) PageTotals() []PageTotals {
	out := make([]PageTotals, 0, len(c.pageFetch))
	for pg, per := range c.pageFetch {
		pt := PageTotals{Page: pg, Home: c.pageHome[pg], Diffs: c.pageDiff[pg]}
		for _, w := range c.pageWriters[pg] {
			pt.Writers += bits.OnesCount64(w)
		}
		for _, n := range per {
			pt.Fetches += n
			if n > pt.MaxProc {
				pt.MaxProc = n
			}
		}
		out = append(out, pt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fetches != out[j].Fetches {
			return out[i].Fetches > out[j].Fetches
		}
		return out[i].Page < out[j].Page
	})
	return out
}

// LockTotals returns every acquired lock's totals, busiest first (ties by
// lock id, so the order is deterministic).
func (c *Counting) LockTotals() []LockTotals {
	out := make([]LockTotals, 0, len(c.lockAcq))
	for l, a := range c.lockAcq {
		out = append(out, LockTotals{Lock: int(l), Acquires: a, Transfers: c.lockXfer[l]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Acquires != out[j].Acquires {
			return out[i].Acquires > out[j].Acquires
		}
		return out[i].Lock < out[j].Lock
	})
	return out
}

// Report renders the top-n hot pages and locks as text (svmsim -hot); n <= 0
// renders every row. A platform without page-grained events gets an empty
// page table.
func (c *Counting) Report(n int) string {
	pages, locks := c.PageTotals(), c.LockTotals()
	if n > 0 && len(pages) > n {
		pages = pages[:n]
	}
	if n > 0 && len(locks) > n {
		locks = locks[:n]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "hot pages (top %d):\n", n)
	fmt.Fprintf(&b, "%10s %5s %8s %8s %8s %8s\n", "page", "home", "fetches", "diffs", "writers", "maxproc")
	for _, p := range pages {
		fmt.Fprintf(&b, "%10d %5d %8d %8d %8d %8d\n", p.Page, p.Home, p.Fetches, p.Diffs, p.Writers, p.MaxProc)
	}
	fmt.Fprintf(&b, "hot locks (top %d):\n", n)
	fmt.Fprintf(&b, "%10s %10s %10s\n", "lock", "acquires", "transfers")
	for _, l := range locks {
		fmt.Fprintf(&b, "%10d %10d %10d\n", l.Lock, l.Acquires, l.Transfers)
	}
	return b.String()
}

var _ Sink = (*Counting)(nil)
