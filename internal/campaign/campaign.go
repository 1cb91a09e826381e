// Package campaign drives large, long-running, interruptible experiment
// campaigns: it expands a declarative spec (apps × versions × platforms ×
// processor counts × scales, with include/exclude predicates) into a
// deterministic, memo-key-ordered cell manifest, and executes it through
// a bounded worker pool over the harness memo/store tiers.
//
// Progress is checkpointed in a journal (see Journal): every completed
// cell is appended with its result fingerprint, so killing a campaign at
// any point and re-invoking it resumes with zero recomputation — journaled
// cells are skipped outright, and cells that finished in the persistent
// store but missed the journal come back as store hits rather than
// simulations. A completed campaign re-run executes nothing and emits a
// byte-identical manifest summary.
//
// The cell bytes a campaign fingerprints are the canonical single-cell
// document (harness.CellBody — the exact bytes `svmsim -json` prints), so
// a cell fingerprints the same whichever tool produced it.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/store"
)

// Spec declares a campaign: the cross product of its axes, filtered by the
// optional include/exclude predicates. The JSON form is what `campaign
// -spec FILE` reads; see campaigns/scaling128.json for the committed
// big-proc scaling study.
type Spec struct {
	// Name identifies the campaign in journals, manifests, and progress
	// events.
	Name string `json:"name"`
	// Apps lists each application with the versions to run.
	Apps []AppMatrix `json:"apps"`
	// Platforms, Procs and Scales are the remaining axes; every
	// combination is a cell unless a predicate filters it.
	Platforms []string  `json:"platforms"`
	Procs     []int     `json:"procs"`
	Scales    []float64 `json:"scales"`
	// Check enables the runtime invariant checker on every cell.
	Check bool `json:"check,omitempty"`
	// Include, when non-empty, keeps only cells matching at least one
	// predicate; Exclude then drops cells matching any of its predicates.
	Include []Predicate `json:"include,omitempty"`
	Exclude []Predicate `json:"exclude,omitempty"`
}

// AppMatrix is one application axis entry: the app and its versions.
type AppMatrix struct {
	App      string   `json:"app"`
	Versions []string `json:"versions"`
}

// Predicate matches a subset of the expanded cells. Empty string fields
// and zero numeric fields match everything, so a predicate names only the
// dimensions it constrains: {"app":"ocean","min_procs":64} matches every
// ocean cell at 64+ processors.
type Predicate struct {
	App      string  `json:"app,omitempty"`
	Version  string  `json:"version,omitempty"`
	Platform string  `json:"platform,omitempty"`
	MinProcs int     `json:"min_procs,omitempty"`
	MaxProcs int     `json:"max_procs,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	// Class selects versions by their optimization class from the paper's
	// taxonomy: "Orig", "P/A", "DS", or "Alg". It matches the registry's
	// Version.Class, so a spec can say "every algorithm-redesign variant"
	// without naming each app's version spelling.
	Class string `json:"class,omitempty"`
}

// classNames are the spellings Predicate.Class accepts: the String()
// forms of the paper's four optimization classes.
var classNames = map[string]core.Class{
	core.Orig.String(): core.Orig,
	core.PA.String():   core.PA,
	core.DS.String():   core.DS,
	core.Alg.String():  core.Alg,
}

// matches reports whether the predicate selects s.
func (p Predicate) matches(s harness.Spec) bool {
	if p.App != "" && p.App != s.App {
		return false
	}
	if p.Version != "" && p.Version != s.Version {
		return false
	}
	if p.Class != "" {
		a, err := core.Lookup(s.App)
		if err != nil {
			return false
		}
		v, err := core.FindVersion(a, s.Version)
		if err != nil || v.Class.String() != p.Class {
			return false
		}
	}
	if p.Platform != "" && p.Platform != s.Platform {
		return false
	}
	if p.MinProcs > 0 && s.NumProcs < p.MinProcs {
		return false
	}
	if p.MaxProcs > 0 && s.NumProcs > p.MaxProcs {
		return false
	}
	if p.Scale > 0 && p.Scale != s.Scale {
		return false
	}
	return true
}

// Cell is one expanded experiment of a campaign: the fully-defaulted spec
// and its memo key — the name the cell goes by in the journal, the
// manifest, and the persistent store.
type Cell struct {
	Spec harness.Spec
	Key  string
}

// DecodeSpec parses a campaign spec document, rejecting unknown fields so
// a typo'd axis name fails loudly instead of silently shrinking the
// matrix.
func DecodeSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("campaign: parsing spec: %w", err)
	}
	// Trailing garbage after the document would mean a concatenated or
	// corrupted file; refuse it.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("campaign: trailing data after spec document")
	}
	return &s, nil
}

// validate checks the axes before expansion: every cell of the unfiltered
// cross product must pass harness.Spec.Validate, so a campaign of
// thousands of cells fails on the typo instead of journaling thousands of
// error rows.
func (s *Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: spec has no name")
	}
	if strings.ContainsAny(s.Name, " \t\r\n") {
		return fmt.Errorf("campaign: name %q contains whitespace", s.Name)
	}
	if len(s.Apps) == 0 || len(s.Platforms) == 0 || len(s.Procs) == 0 || len(s.Scales) == 0 {
		return fmt.Errorf("campaign: spec needs at least one app, platform, processor count, and scale")
	}
	for _, am := range s.Apps {
		if len(am.Versions) == 0 {
			return fmt.Errorf("campaign: app %q lists no versions", am.App)
		}
		for _, v := range am.Versions {
			for _, pl := range s.Platforms {
				for _, np := range s.Procs {
					for _, sc := range s.Scales {
						spec := harness.Spec{App: am.App, Version: v, Platform: pl, NumProcs: np, Scale: sc}
						if err := spec.Validate(); err != nil {
							return fmt.Errorf("campaign: %w", err)
						}
					}
				}
			}
		}
	}
	for _, preds := range [][]Predicate{s.Include, s.Exclude} {
		for _, p := range preds {
			if p.Class == "" {
				continue
			}
			if _, ok := classNames[p.Class]; !ok {
				names := make([]string, 0, len(classNames))
				for n := range classNames {
					names = append(names, n)
				}
				sort.Strings(names)
				return fmt.Errorf("campaign: unknown optimization class %q in predicate (want one of %v)", p.Class, names)
			}
		}
	}
	return nil
}

// Expand validates the spec and enumerates its cell manifest: the full
// cross product, predicate-filtered, deduplicated, and sorted by memo
// key. The order is deterministic for a given spec regardless of how the
// axes are spelled, so journals and manifests agree across runs and
// machines.
func (s *Spec) Expand() ([]Cell, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var cells []Cell
	for _, am := range s.Apps {
		for _, v := range am.Versions {
			for _, pl := range s.Platforms {
				for _, np := range s.Procs {
					for _, sc := range s.Scales {
						spec := harness.Spec{
							App: am.App, Version: v, Platform: pl,
							NumProcs: np, Scale: sc, Check: s.Check,
						}
						if !s.selects(spec) {
							continue
						}
						key := spec.MemoKey()
						if seen[key] {
							continue
						}
						seen[key] = true
						cells = append(cells, Cell{Spec: spec, Key: key})
					}
				}
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("campaign: predicates filtered out every cell")
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Key < cells[j].Key })
	return cells, nil
}

// selects applies the include/exclude predicates to one cell spec.
func (s *Spec) selects(spec harness.Spec) bool {
	if len(s.Include) > 0 {
		hit := false
		for _, p := range s.Include {
			if p.matches(spec) {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	for _, p := range s.Exclude {
		if p.matches(spec) {
			return false
		}
	}
	return true
}

// Digest names a cell manifest: a journal written for one digest can only
// resume a campaign that expands to the identical cell set, so editing a
// spec mid-campaign is caught instead of silently mixing manifests.
func Digest(cells []Cell) string {
	h := sha256.New()
	io.WriteString(h, "repro-campaign-cells-v1\n")
	for _, c := range cells {
		io.WriteString(h, c.Key)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// ParseProcs parses a -procs flag value: comma-separated positive
// integers with no duplicates. A dup would either waste a run or (worse)
// silently render the same column twice. Shared by cmd/sweep and
// cmd/campaign so the flag grammar cannot drift between them.
func ParseProcs(s string) ([]int, error) {
	var counts []int
	seen := map[int]bool{}
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad processor count %q (want a positive integer)", strings.TrimSpace(f))
		}
		if seen[n] {
			return nil, fmt.Errorf("duplicate processor count %d in -procs %q", n, s)
		}
		seen[n] = true
		counts = append(counts, n)
	}
	return counts, nil
}

// OpenMemo builds the experiment cache every command executes through: an
// in-memory memo over the persistent store at dir, or memo-only when dir
// is empty. Shared by figures, sweep, svmsim, and campaign so the
// store-opening boilerplate lives once.
func OpenMemo(dir string) (*harness.Memo, error) {
	if dir == "" {
		return harness.NewMemo(nil), nil
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return harness.NewMemo(st), nil
}

// SweepCells enumerates cmd/sweep's matrix for one app/version: every
// (processor count × platform) cell plus each platform's uniprocessor
// baseline of the original version, deduplicated (a 1-processor sweep of
// the original version IS its own baseline). This is the same enumeration
// a one-app campaign spec expands to; sweep is a thin rendering over it.
func SweepCells(app, version string, plats []string, procs []int, scale float64) []Cell {
	orig := core.OrigVersion(app)
	seen := map[string]bool{}
	var cells []Cell
	add := func(spec harness.Spec) {
		key := spec.MemoKey()
		if !seen[key] {
			seen[key] = true
			cells = append(cells, Cell{Spec: spec, Key: key})
		}
	}
	for _, pl := range plats {
		add(harness.Spec{App: app, Version: orig, Platform: pl, NumProcs: 1, Scale: scale})
		for _, np := range procs {
			add(harness.Spec{App: app, Version: version, Platform: pl, NumProcs: np, Scale: scale})
		}
	}
	return cells
}
