package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/platform"
)

// BaseScale gives each application's default problem-size scale for figure
// regeneration, chosen to track the paper's inputs while simulating in
// reasonable time: LU 512x512 (paper 1024: pass -scale 2), Ocean 514-class
// grids, Volrend/Shear-Warp 256-class images (paper's 256x225 head),
// Raytrace 128x128 (the paper's exact image), Barnes 4K bodies (paper 16K:
// pass -scale 4), Radix 512K keys (paper 4M: pass -scale 8).
var BaseScale = map[string]float64{
	"lu":        2,
	"ocean":     2,
	"volrend":   2,
	"shearwarp": 2,
	"raytrace":  1,
	"barnes":    2,
	"radix":     2,
	// Irregular extension workloads (ROADMAP item 3): sized so a 16-way
	// cell simulates in the same ballpark as the paper apps above.
	"kvstore":  2,
	"bfs":      2,
	"pipeline": 2,
}

// scaleFor is the scale the runner runs app at: its Scale multiplier (1 if
// unset) on top of the app's BaseScale.
func (r *Runner) scaleFor(app string) float64 {
	s := r.Scale
	if s == 0 {
		s = 1
	}
	if b, ok := BaseScale[app]; ok {
		return b * s
	}
	return s
}

// CheckScale rejects a Scale multiplier whose product with app's BaseScale
// overflows to +Inf (1e308 times 2), naming the multiplier as given rather
// than the product no one asked for. Spec.Validate checks the multiplier
// itself.
func (r *Runner) CheckScale(app string) error {
	if s := r.scaleFor(app); math.IsInf(s, 1) {
		return fmt.Errorf("bad scale %g (times %s's base scale %g it overflows to %g)", r.Scale, app, BaseScale[app], s)
	}
	return nil
}

// Figure is one regenerable experiment from the paper.
type Figure struct {
	ID    string
	Title string
	// Cells enumerates the experiments the figure needs, so they can be
	// pre-executed in parallel (Runner.RunParallel) before Run renders
	// them serially from the memo cache.
	Cells func() []Cell
	// Run renders the figure. A failing cell becomes an error row in the
	// output (with a note below the table) rather than an error return,
	// so one bad cell cannot abort a whole figures run; the error return
	// is reserved for infrastructure failures.
	Run func(r *Runner) (string, error)
}

// cellErr formats one failed cell for the notes under a figure table.
func cellErr(cell string, err error) string {
	return "  ! " + cell + ": " + FirstLine(err.Error())
}

// writeFails appends the per-cell failure notes to a rendered figure.
func writeFails(b *strings.Builder, fails []string) {
	for _, f := range fails {
		fmt.Fprintln(b, f)
	}
}

type breakdownSpec struct {
	id, title, app, version string
}

var breakdowns = []breakdownSpec{
	{"fig3", "Execution time breakdown of LU contiguous version without padding/alignment", "lu", "4d"},
	{"fig4", "Execution time breakdown of Ocean contiguous version", "ocean", "4d"},
	{"fig5", "Execution time breakdown of Ocean row-wise version", "ocean", "rows"},
	{"fig6", "Execution time breakdown of Volrend for the SPLASH-2 version", "volrend", "orig"},
	{"fig7", "Execution time breakdown of Volrend with a more balanced task partition algorithm and stealing", "volrend", "balanced"},
	{"fig8", "Execution time breakdown of Volrend with a more balanced task partition algorithm and no stealing", "volrend", "nosteal"},
	{"fig9", "Execution time breakdown of original Shear-Warp", "shearwarp", "orig"},
	{"fig10", "Execution time breakdown of optimized Shear-Warp", "shearwarp", "opt"},
	{"fig11", "Execution time breakdown of Raytrace for the SPLASH-2 version", "raytrace", "orig"},
	{"fig12", "Execution time breakdown of optimized Raytrace", "raytrace", "splitq"},
	{"fig13", "Execution time breakdown of Barnes for SPLASH-2 version", "barnes", "splash2"},
	{"fig14", "Execution time breakdown of Barnes for spatial version", "barnes", "spatial"},
	{"fig15", "Execution time breakdown of Radix for SPLASH-2 version", "radix", "orig"},
}

// Figures returns every regenerable figure in paper order.
func Figures() []Figure {
	figs := []Figure{
		{ID: "fig2", Title: "Speedups for the original versions across the shared address space multiprocessors", Cells: fig2Cells, Run: fig2},
	}
	for _, b := range breakdowns {
		b := b
		figs = append(figs, Figure{
			ID:    b.id,
			Title: b.title,
			Cells: func() []Cell {
				return []Cell{{App: b.app, Version: b.version, Platform: "svm"}}
			},
			Run: func(r *Runner) (string, error) {
				run, err := r.Run(b.app, b.version, "svm")
				if err != nil {
					return fmt.Sprintf("error: %s\n", FirstLine(err.Error())), nil
				}
				return run.BreakdownTable(), nil
			},
		})
	}
	figs = append(figs,
		Figure{ID: "fig16", Title: "Performance with different optimization classes across shared-address-space multiprocessors", Cells: fig16Cells, Run: fig16},
		Figure{ID: "fig17", Title: "Speedups of Volrend with the algorithmic optimization with and without stealing on SVM and CC-NUMA DSM", Cells: fig17Cells, Run: fig17},
	)
	return figs
}

// FindFigure returns the figure with the given ID.
func FindFigure(id string) (Figure, error) {
	var ids []string
	for _, f := range Figures() {
		if f.ID == id {
			return f, nil
		}
		ids = append(ids, f.ID)
	}
	return Figure{}, fmt.Errorf("harness: unknown figure %q (want one of %s)", id, strings.Join(ids, ", "))
}

func fig2Cells() []Cell {
	var cells []Cell
	for _, app := range core.PaperApps() {
		for _, pl := range platform.Names {
			cells = append(cells, Cell{App: app, Version: core.OrigVersion(app), Platform: pl, Speedup: true})
		}
	}
	return cells
}

func fig2(r *Runner) (string, error) {
	var b strings.Builder
	var fails []string
	fmt.Fprintf(&b, "%-10s", "app")
	for _, pl := range platform.Names {
		fmt.Fprintf(&b, " %8s", pl)
	}
	fmt.Fprintln(&b)
	for _, app := range core.PaperApps() {
		orig := core.OrigVersion(app)
		fmt.Fprintf(&b, "%-10s", app)
		for _, pl := range platform.Names {
			s, err := r.Speedup(app, orig, pl)
			if err != nil {
				fmt.Fprintf(&b, " %8s", "error")
				fails = append(fails, cellErr(app+"/"+orig+"@"+pl, err))
				continue
			}
			fmt.Fprintf(&b, " %8.2f", s)
		}
		fmt.Fprintln(&b)
	}
	writeFails(&b, fails)
	return b.String(), nil
}

func fig16Cells() []Cell {
	var cells []Cell
	for _, app := range core.PaperApps() {
		a, _ := core.Lookup(app)
		for _, v := range a.Versions() {
			for _, pl := range platform.Names {
				cells = append(cells, Cell{App: app, Version: v.Name, Platform: pl, Speedup: true})
			}
		}
	}
	return cells
}

func fig16(r *Runner) (string, error) {
	var b strings.Builder
	var fails []string
	for _, app := range core.PaperApps() {
		a, _ := core.Lookup(app)
		fmt.Fprintf(&b, "%s:\n", app)
		fmt.Fprintf(&b, "  %-12s %-5s", "version", "class")
		for _, pl := range platform.Names {
			fmt.Fprintf(&b, " %8s", pl)
		}
		fmt.Fprintln(&b)
		for _, v := range a.Versions() {
			fmt.Fprintf(&b, "  %-12s %-5s", v.Name, v.Class)
			for _, pl := range platform.Names {
				s, err := r.Speedup(app, v.Name, pl)
				if err != nil {
					fmt.Fprintf(&b, " %8s", "error")
					fails = append(fails, cellErr(app+"/"+v.Name+"@"+pl, err))
					continue
				}
				fmt.Fprintf(&b, " %8.2f", s)
			}
			fmt.Fprintln(&b)
		}
	}
	writeFails(&b, fails)
	return b.String(), nil
}

func fig17Cells() []Cell {
	var cells []Cell
	for _, v := range []string{"balanced", "nosteal"} {
		for _, pl := range []string{"svm", "dsm"} {
			cells = append(cells, Cell{App: "volrend", Version: v, Platform: pl, Speedup: true})
		}
	}
	return cells
}

func fig17(r *Runner) (string, error) {
	var b strings.Builder
	var fails []string
	fmt.Fprintf(&b, "%-10s %8s %8s\n", "version", "svm", "dsm")
	for _, v := range []string{"balanced", "nosteal"} {
		fmt.Fprintf(&b, "%-10s", v)
		for _, pl := range []string{"svm", "dsm"} {
			s, err := r.Speedup("volrend", v, pl)
			if err != nil {
				fmt.Fprintf(&b, " %8s", "error")
				fails = append(fails, cellErr("volrend/"+v+"@"+pl, err))
				continue
			}
			fmt.Fprintf(&b, " %8.2f", s)
		}
		fmt.Fprintln(&b)
	}
	writeFails(&b, fails)
	return b.String(), nil
}

// HeadlineCells enumerates the experiments HeadlineSpeedups needs, for
// parallel pre-execution.
func HeadlineCells() []Cell {
	var cells []Cell
	for _, app := range core.PaperApps() {
		a, _ := core.Lookup(app)
		for _, v := range a.Versions() {
			cells = append(cells, Cell{App: app, Version: v.Name, Platform: "svm", Speedup: true})
		}
	}
	return cells
}

// HeadlineSpeedups renders the paper's §4 per-application progression on
// SVM: every version's speedup in order, so the optimization story can be
// read off directly.
func HeadlineSpeedups(r *Runner) (string, error) {
	var b strings.Builder
	var fails []string
	apps := core.PaperApps()
	sort.Strings(apps)
	for _, app := range apps {
		a, _ := core.Lookup(app)
		fmt.Fprintf(&b, "%-10s", app)
		for _, v := range a.Versions() {
			s, err := r.Speedup(app, v.Name, "svm")
			if err != nil {
				fmt.Fprintf(&b, "  %s=error", v.Name)
				fails = append(fails, cellErr(app+"/"+v.Name+"@svm", err))
				continue
			}
			fmt.Fprintf(&b, "  %s=%.2f", v.Name, s)
		}
		fmt.Fprintln(&b)
	}
	writeFails(&b, fails)
	return b.String(), nil
}
