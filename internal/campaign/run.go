package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/harness"
)

// Outcome is one executed cell's result, as reported by an Executor: the
// canonical single-cell document bytes (result and failure documents
// alike, trailing newline included), and the application's result
// fingerprint of a done cell (0 when the executor has none).
type Outcome struct {
	Cell   Cell
	Body   []byte
	Result uint64
}

// Executor executes cells, invoking emit exactly once per cell it
// completes (from any goroutine). It returns when every cell has been
// emitted or ctx is canceled; cells not emitted before cancellation stay
// pending — the journal never sees them, so a resume picks them up.
type Executor interface {
	Execute(ctx context.Context, cells []Cell, emit func(Outcome))
}

// Local executes cells in-process through a memo: a bounded worker pool
// of single-threaded simulations, the same engine figures uses.
type Local struct {
	Memo *harness.Memo
	// Workers bounds concurrent simulations (GOMAXPROCS when <= 0).
	Workers int
}

// Execute runs the cells through the memo, producing for each the exact
// bytes `svmsim -json` prints for it (harness.CellBody) and the memoized
// run's result fingerprint.
// Once ctx is done no further cells start; in-flight cells finish and are
// emitted, and the rest stay pending.
func (l *Local) Execute(ctx context.Context, cells []Cell, emit func(Outcome)) {
	harness.ForEach(ctx, l.Workers, cells, func(c Cell) {
		// A cell's failure is in its document, where entryFor reads it.
		body, run, _ := harness.CellBody(l.Memo, c.Spec, false)
		o := Outcome{Cell: c, Body: body}
		if run != nil {
			o.Result = run.Result
		}
		emit(o)
	})
}

// fingerprint names a cell's document bytes: first 8 bytes of SHA-256,
// hex — the value manifest identity is asserted on.
func fingerprint(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:8])
}

// cellDocument is the subset of the single-cell JSON document the journal
// needs: the simulated end time of a result, or the structured error of a
// failure document.
type cellDocument struct {
	EndTime uint64 `json:"end_time"`
	Error   *struct {
		Kind    string `json:"kind"`
		Message string `json:"message"`
	} `json:"error"`
}

// entryFor derives the journal entry for an outcome. Everything in the
// entry comes from the document bytes, not from in-process error values.
// Attempts is always 1: the field is kept so journal lines keep their
// format.
func entryFor(o Outcome) Entry {
	e := Entry{Key: o.Cell.Key, Attempts: 1, FP: fingerprint(o.Body)}
	var doc cellDocument
	if err := json.Unmarshal(o.Body, &doc); err != nil {
		// A document that does not parse is not a cell result; journal it
		// as transient so a resume retries the cell, never settling on
		// garbage.
		e.Status = "failed"
		e.Kind = KindTransient
		e.Msg = harness.FirstLine("undecodable cell document: " + err.Error())
		e.FP = ""
		return e
	}
	if doc.Error != nil {
		e.Status = "failed"
		e.Kind = doc.Error.Kind
		e.Msg = harness.FirstLine(doc.Error.Message)
		return e
	}
	e.Status = "done"
	e.End = doc.EndTime
	if o.Result != 0 {
		e.Result = fmt.Sprintf("%016x", o.Result)
	}
	return e
}

// Runner executes a campaign's pending cells through an executor,
// journaling each completion. Wire OnEntry for progress reporting.
type Runner struct {
	// Name identifies the campaign (Spec.Name for spec-driven runs).
	Name string
	// Cells is the full expanded manifest, memo-key-ordered.
	Cells []Cell
	// Journal, when non-nil, is consulted for already-complete cells and
	// appended to as cells finish. A nil journal runs everything fresh
	// and keeps results only in memory.
	Journal *Journal
	// Exec runs the pending cells (Local, or a wrapper around it).
	Exec Executor
	// OnEntry, when non-nil, is called after each cell is journaled —
	// from executor goroutines, so it must be safe for concurrent use.
	OnEntry func(Cell, Entry)
	// StopAfter, when positive, cancels the run after that many newly
	// journaled cells — the deterministic "kill it mid-flight" used by
	// the resume tests and the CI smoke.
	StopAfter int
}

// Report is the final state of one Run call.
type Report struct {
	Name   string
	Digest string
	// Cells is the full manifest; Entries holds the settled state of
	// every completed cell (journal-resumed and newly executed).
	Cells   []Cell
	Entries map[string]Entry
	// Resumed counts cells already complete in the journal; Executed
	// counts cells this run completed; Interrupted reports whether the
	// run stopped (ctx canceled or StopAfter reached) with cells still
	// pending.
	Resumed     int
	Executed    int
	Interrupted bool
}

// Failed returns the failed cells' entries, sorted by key.
func (rep *Report) Failed() []Entry {
	var out []Entry
	for _, c := range rep.Cells {
		if e, ok := rep.Entries[c.Key]; ok && e.Status == "failed" {
			out = append(out, e)
		}
	}
	return out
}

// Run expands nothing and retries nothing itself: it skips cells the
// journal already settled, hands the rest to the executor, and journals
// completions as they arrive. It returns ctx.Err when interrupted; the
// report is valid either way.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	rep := &Report{
		Name:    r.Name,
		Digest:  Digest(r.Cells),
		Cells:   r.Cells,
		Entries: map[string]Entry{},
	}
	var pending []Cell
	if r.Journal != nil {
		journaled := r.Journal.Entries()
		for _, c := range r.Cells {
			if e, ok := journaled[c.Key]; ok && e.Complete() {
				rep.Entries[c.Key] = e
				rep.Resumed++
				continue
			}
			pending = append(pending, c)
		}
	} else {
		pending = r.Cells
	}
	if len(pending) == 0 {
		return rep, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex
	emit := func(o Outcome) {
		e := entryFor(o)
		mu.Lock()
		if r.Journal != nil {
			if err := r.Journal.Append(e); err != nil {
				// A journal write failure (full disk, removed file) costs
				// resumability, not results: the entry still counts in
				// this run's report.
				fmt.Fprintln(os.Stderr, "campaign:", err)
			}
		}
		rep.Entries[o.Cell.Key] = e
		rep.Executed++
		stop := r.StopAfter > 0 && rep.Executed >= r.StopAfter
		mu.Unlock()
		if r.OnEntry != nil {
			r.OnEntry(o.Cell, e)
		}
		if stop {
			cancel()
		}
	}
	r.Exec.Execute(ctx, pending, emit)

	mu.Lock()
	rep.Interrupted = rep.Executed < len(pending)
	mu.Unlock()
	if err := ctx.Err(); err != nil && rep.Interrupted {
		return rep, err
	}
	return rep, nil
}

// Manifest renders the campaign's deterministic summary: one line per
// manifest cell in memo-key order with its status and result fingerprint.
// Two runs of the same spec over the same simulator build — interrupted
// and resumed any number of times — produce byte-identical manifests.
func (rep *Report) Manifest() string {
	var b strings.Builder
	done, failed, pendingN := 0, 0, 0
	for _, c := range rep.Cells {
		switch e, ok := rep.Entries[c.Key]; {
		case !ok:
			pendingN++
		case e.Status == "done":
			done++
		default:
			failed++
		}
	}
	fmt.Fprintf(&b, "campaign %s digest %s cells %d\n", rep.Name, rep.Digest, len(rep.Cells))
	fmt.Fprintf(&b, "done %d failed %d pending %d\n", done, failed, pendingN)
	for _, c := range rep.Cells {
		e, ok := rep.Entries[c.Key]
		switch {
		case !ok:
			fmt.Fprintf(&b, "pending - - %s\n", c.Key)
		case e.Status == "done":
			fmt.Fprintf(&b, "done %s end=%d %s\n", e.FP, e.End, c.Key)
		default:
			fp := e.FP
			if fp == "" {
				fp = "-"
			}
			fmt.Fprintf(&b, "failed %s %s %s\n", e.Kind, fp, c.Key)
		}
	}
	return b.String()
}

// Table renders the campaign's scaling tables from settled entries: for
// each (app, version, scale) of the spec, speedup over the platform's
// uniprocessor original version (the paper's convention) per processor
// count, in spec order, and platform. A failed cell renders as "error",
// and so does every cell of a platform whose baseline failed; cells
// outside the manifest or still pending render as "-", and when a
// platform's baseline is missing, its whole column is "-". A one-app spec
// whose exclude keeps only the original version's P=1 cell renders a
// processor-count sweep of one version.
func (s *Spec) Table(entries map[string]Entry) string {
	var b strings.Builder
	for _, am := range s.Apps {
		for _, v := range am.Versions {
			for _, sc := range s.Scales {
				fmt.Fprintf(&b, "%s/%s speedup vs uniprocessor original (scale %g)\n", am.App, v, sc)
				fmt.Fprintf(&b, "%6s", "P")
				for _, pl := range s.Platforms {
					fmt.Fprintf(&b, " %8s", pl)
				}
				fmt.Fprintln(&b)
				for _, np := range s.Procs {
					fmt.Fprintf(&b, "%6d", np)
					for _, pl := range s.Platforms {
						cell := harness.Spec{App: am.App, Version: v, Platform: pl, NumProcs: np, Scale: sc, Check: s.Check}
						base, okB := entries[cell.Baseline().MemoKey()]
						e, okE := entries[cell.MemoKey()]
						switch {
						case okE && e.Status == "failed", okB && base.Status == "failed":
							fmt.Fprintf(&b, " %8s", "error")
						case !okB || !okE || base.End == 0 || e.End == 0:
							fmt.Fprintf(&b, " %8s", "-")
						default:
							fmt.Fprintf(&b, " %8.2f", float64(base.End)/float64(e.End))
						}
					}
					fmt.Fprintln(&b)
				}
				fmt.Fprintln(&b)
			}
		}
	}
	return strings.TrimSuffix(b.String(), "\n")
}
