package platform

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// primitive is one microprogram measuring a platform primitive's simulated
// cost. body runs on every processor; a is 64 pages homed on processor 0.
type primitive struct {
	np    int
	ops   uint64 // operations the body performs, for the per-op message
	body  func(p *sim.Proc, a uint64)
	total func(r *stats.Run) uint64
}

var (
	// pageFetch: processor 1 faults in 64 pages homed on processor 0, one
	// unloaded fetch each (the paper's fundamental SVM cost unit).
	pageFetch = primitive{
		np: 2, ops: 64,
		body: func(p *sim.Proc, a uint64) {
			if p.ID() == 1 {
				for pg := uint64(0); pg < 64; pg++ {
					p.Read(a + pg*PageSize)
				}
			}
			p.Barrier()
		},
		total: func(r *stats.Run) uint64 { return r.Procs[1].Cycles[stats.DataWait] },
	}
	// lockHandoff: two processors each take one lock 100 times with long
	// gaps between, so the lock mostly moves between them uncontended.
	lockHandoff = primitive{
		np: 2, ops: 200,
		body: func(p *sim.Proc, _ uint64) {
			for j := 0; j < 100; j++ {
				p.Lock(1)
				p.Compute(10)
				p.Unlock(1)
				p.Compute(1000)
			}
			p.Barrier()
		},
		total: func(r *stats.Run) uint64 { return r.TotalCycles(stats.LockWait) },
	}
	// barrierArrival: 16 processors cross 20 barriers back to back.
	barrierArrival = primitive{
		np: 16, ops: 20 * 16,
		body: func(p *sim.Proc, _ uint64) {
			for j := 0; j < 20; j++ {
				p.Barrier()
			}
		},
		total: func(r *stats.Run) uint64 { return r.TotalCycles(stats.BarrierWait) },
	}
)

// TestPrimitiveCosts pins the simulated primitive costs the paper's case
// rests on: SVM primitives cost orders of magnitude more than hardware ones
// (EXPERIMENTS.md "Primitive costs"). Simulated cycles do not depend on the
// host, so the totals are exact: one cycle more on any HLRC, bus or
// directory cost these primitives charge fails here by name.
func TestPrimitiveCosts(t *testing.T) {
	for _, c := range []struct {
		name string
		prim primitive
		plat string
		want uint64
	}{
		{"page fetch", pageFetch, "svm", 1426176},           // 22 284 per fetch
		{"lock handoff", lockHandoff, "svm", 1494370},       // 7 471.85 per lock
		{"lock handoff", lockHandoff, "smp", 26140},         // 130.7 per lock
		{"lock handoff", lockHandoff, "dsm", 52270},         // 261.35 per lock
		{"barrier arrival", barrierArrival, "svm", 7444000}, // 23 262.5 per arrival
		{"barrier arrival", barrierArrival, "smp", 166400},  // 520 per arrival
		{"barrier arrival", barrierArrival, "dsm", 256000},  // 800 per arrival
	} {
		as := mem.NewAddressSpace(PageSize, c.prim.np)
		pl, err := Make(c.plat, as, c.prim.np)
		if err != nil {
			t.Fatal(err)
		}
		a := as.AllocPages(PageSize * 64)
		as.SetHome(a, PageSize*64, 0)
		k := sim.New(pl, sim.Config{NumProcs: c.prim.np, BarrierManager: sim.AutoBarrierManager})
		run := k.Run(c.name, func(p *sim.Proc) { c.prim.body(p, a) })
		if got := c.prim.total(run); got != c.want {
			t.Errorf("%s on %s: %d cycles for %d operations (%.1f each), want %d (%.1f each)",
				c.name, c.plat, got, c.prim.ops, float64(got)/float64(c.prim.ops), c.want, float64(c.want)/float64(c.prim.ops))
		}
	}
}
