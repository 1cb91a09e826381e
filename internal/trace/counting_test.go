package trace_test

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/svm"
	"repro/internal/trace"
)

// runSVM simulates body on an np-node SVM machine over as with a counting
// sink installed through the kernel's ordinary trace-sink hook.
func runSVM(t *testing.T, as *mem.AddressSpace, np int, body func(p *sim.Proc)) (*trace.Counting, *stats.Run) {
	t.Helper()
	c := trace.NewCounting(np)
	k := sim.New(svm.New(as, protocol.DefaultHLRCParams(), np), sim.Config{NumProcs: np})
	k.SetTraceSink(c)
	run, err := k.RunErr(t.Name(), body)
	if err != nil {
		t.Fatal(err)
	}
	return c, run
}

func TestCountingHotPagesAndLocks(t *testing.T) {
	as := mem.NewAddressSpace(4096, 4)
	hot := as.AllocPages(4096)
	cold := as.AllocPages(4096)
	as.SetHome(hot, 4096, 0)
	as.SetHome(cold, 4096, 0)
	c, _ := runSVM(t, as, 4, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.Lock(7)
			if p.ID() != 0 {
				p.Write(hot) // everyone but the home dirties the hot page
			}
			p.Unlock(7)
			p.Barrier()
		}
		if p.ID() == 1 {
			p.Read(cold)
		}
		p.Barrier()
	})

	pages := c.PageTotals()
	if len(pages) == 0 {
		t.Fatal("no hot pages recorded")
	}
	if pages[0].Page != as.PageOf(hot) {
		t.Errorf("hottest page = %d, want %d", pages[0].Page, as.PageOf(hot))
	}
	if pages[0].Home != 0 {
		t.Errorf("hot page home = %d, want 0", pages[0].Home)
	}
	if pages[0].Writers != 3 {
		t.Errorf("hot page writers = %d, want 3", pages[0].Writers)
	}
	if pages[0].Fetches == 0 || pages[0].Diffs == 0 {
		t.Errorf("hot page fetches=%d diffs=%d, want > 0", pages[0].Fetches, pages[0].Diffs)
	}

	found := false
	for _, l := range c.LockTotals() {
		if l.Lock == 7 {
			found = true
			if l.Acquires < 12 {
				t.Errorf("lock 7 acquires = %d, want >= 12", l.Acquires)
			}
			if l.Transfers == 0 {
				t.Error("lock 7 recorded no inter-node transfers")
			}
		}
	}
	if !found {
		t.Fatal("lock 7 missing from profile")
	}

	rep := c.Report(3)
	if !strings.Contains(rep, "hot pages") || !strings.Contains(rep, "hot locks") {
		t.Errorf("malformed report:\n%s", rep)
	}
}

// TestCountingWritersBeyond64Procs: the writer set is sized to the machine,
// so a page dirtied by all 128 processors reports 128 writers, and its home
// comes from the page's NIC occupancy at a node above 64.
func TestCountingWritersBeyond64Procs(t *testing.T) {
	const np = 128
	as := mem.NewAddressSpace(4096, np)
	hot := as.AllocPages(4096)
	as.SetHome(hot, 4096, 100)
	c, _ := runSVM(t, as, np, func(p *sim.Proc) {
		p.Lock(1)
		p.Write(hot)
		p.Unlock(1)
		p.Barrier()
	})
	pages := c.PageTotals()
	if len(pages) != 1 {
		t.Fatalf("got %d fetched pages, want 1", len(pages))
	}
	if pages[0].Writers != np {
		t.Errorf("writers = %d, want %d", pages[0].Writers, np)
	}
	if pages[0].Home != 100 {
		t.Errorf("home = %d, want 100", pages[0].Home)
	}
}

// TestCountingReportDeterministic pins -hot output ordering: two identical
// runs must render byte-identical reports (sort keys break all ties).
func TestCountingReportDeterministic(t *testing.T) {
	render := func() string {
		as := mem.NewAddressSpace(4096, 4)
		data := as.AllocPages(32 * 4096)
		as.DistributeBlocked(data, 32*4096)
		c, _ := runSVM(t, as, 4, func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				p.Lock(i % 3)
				p.WriteRange(data+uint64(((p.ID()+i)%32)*4096), 512)
				p.Unlock(i % 3)
				p.Barrier()
			}
		})
		return c.Report(10)
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("profile report not deterministic:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}
