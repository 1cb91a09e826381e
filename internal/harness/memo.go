package harness

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/store"
)

// Memo is the spec-keyed experiment cache every execution path funnels
// through: an in-memory singleflight tier (concurrent requests for the same
// cold cell wait for exactly one execution) over an optional persistent
// store tier (results survive the process; see internal/store). Runner is a
// figure-oriented view over a Memo; several runners can share one Memo so
// all of them coalesce and cache together.
//
// The simulator is deterministic, so failures are cached like results, in
// both tiers: a bad cell is computed once, not retried on every lookup.
type Memo struct {
	// Store, when non-nil, is the persistent second tier. Set before the
	// first Run call.
	Store *store.Store
	// Exec executes one experiment; nil means Execute. Tests override it
	// to count or stub simulations.
	Exec func(Spec) (*stats.Run, error)

	mu   sync.Mutex
	runs map[string]*memoEntry

	memoHits, memoMisses     atomic.Uint64
	storeHits, storeMisses   atomic.Uint64
	executions, storeRecords atomic.Uint64
}

// NewMemo creates a Memo over an optional persistent store (nil for
// in-memory only).
func NewMemo(st *store.Store) *Memo {
	return &Memo{Store: st, runs: map[string]*memoEntry{}}
}

// CacheStats is a point-in-time snapshot of a Memo's counters. MemoHits
// counts lookups answered by the in-memory tier; StoreHits/StoreMisses
// count what the persistent tier answered of the memo misses; Executions
// counts actual simulations (a warm rerun should show zero).
type CacheStats struct {
	MemoHits, MemoMisses   uint64
	StoreHits, StoreMisses uint64
	Executions             uint64
}

func (c CacheStats) String() string {
	return fmt.Sprintf("memo %d hit / %d miss, store %d hit / %d miss, %d simulation(s)",
		c.MemoHits, c.MemoMisses, c.StoreHits, c.StoreMisses, c.Executions)
}

// Stats returns the memo's cumulative counters.
func (m *Memo) Stats() CacheStats {
	return CacheStats{
		MemoHits:    m.memoHits.Load(),
		MemoMisses:  m.memoMisses.Load(),
		StoreHits:   m.storeHits.Load(),
		StoreMisses: m.storeMisses.Load(),
		Executions:  m.executions.Load(),
	}
}

// StoredError replays a deterministic failure from the persistent store.
// The concrete error type of the original failure is gone (it lived in
// another process), but its JSON kind and full message are preserved, so
// RunErrorJSON and FailedCells render identically warm or cold.
type StoredError struct {
	Kind string // "panic", "deadlock", "invariant", "verify" or "error"
	Msg  string
}

func (e *StoredError) Error() string { return e.Msg }

// claim returns the singleflight entry for key, creating it if absent; the
// second result reports whether the caller claimed it and must fill the
// entry and close done.
func (m *Memo) claim(key string) (*memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.runs[key]; ok {
		return e, false
	}
	e := &memoEntry{done: make(chan struct{})}
	m.runs[key] = e
	return e, true
}

// Run returns the result for s, executing it at most once per memo (and,
// with a store attached, at most once per store lifetime across processes).
//
// Specs carrying observability hooks (TraceSink, TraceRing, SampleInterval)
// bypass both tiers and execute directly: the hooks are excluded from the
// memo key, and a cache hit would silently produce no events.
func (m *Memo) Run(s Spec) (*stats.Run, error) {
	s = s.withDefaults()
	if s.TraceSink != nil || s.TraceRing > 0 || s.SampleInterval > 0 {
		m.executions.Add(1)
		return m.exec(s)
	}
	e, mine := m.claim(s.memoKey())
	if mine {
		m.memoMisses.Add(1)
		e.run, e.err = m.load(s)
		close(e.done)
	} else {
		m.memoHits.Add(1)
	}
	<-e.done
	return e.run, e.err
}

// Record inserts an externally-executed result for s into the in-memory
// tier (not the store: the caller may have run s with observability hooks,
// whose timing-neutral guarantee we trust but whose provenance we do not
// persist).
func (m *Memo) Record(s Spec, run *stats.Run) {
	s = s.withDefaults()
	e := &memoEntry{done: make(chan struct{}), run: run}
	close(e.done)
	m.mu.Lock()
	m.runs[s.memoKey()] = e
	m.mu.Unlock()
}

func (m *Memo) exec(s Spec) (*stats.Run, error) {
	if m.Exec != nil {
		return m.Exec(s)
	}
	return Execute(s)
}

// load consults the persistent tier, then executes and writes back.
func (m *Memo) load(s Spec) (*stats.Run, error) {
	key := s.memoKey()
	if m.Store != nil {
		if res, ok := m.Store.Get(key); ok {
			m.storeHits.Add(1)
			if res.ErrKind != "" {
				return nil, &StoredError{Kind: res.ErrKind, Msg: res.ErrMsg}
			}
			return res.Run, nil
		}
		m.storeMisses.Add(1)
	}
	m.executions.Add(1)
	run, err := m.exec(s)
	if m.Store != nil {
		res := store.Result{Run: run}
		if err != nil {
			res = store.Result{ErrKind: errorKind(err), ErrMsg: err.Error()}
		}
		// A write failure (full disk, read-only dir) costs persistence,
		// not correctness: the result is still memoized and returned.
		_ = m.Store.Put(key, res)
	}
	return run, err
}

// Failed returns a sorted, one-line-per-cell description of every memoized
// execution that ended in an error.
func (m *Memo) Failed() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for key, e := range m.runs {
		select {
		case <-e.done:
			if e.err != nil {
				out = append(out, key+": "+FirstLine(e.err.Error()))
			}
		default: // still executing; not a result yet
		}
	}
	sort.Strings(out)
	return out
}
