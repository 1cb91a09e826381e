package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/stats"
)

// chromeEvent mirrors the trace-event fields the tests inspect.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur"`
	Args map[string]any `json:"args"`
}

func exportEvents(t *testing.T, emit func(c *Chrome)) []chromeEvent {
	t.Helper()
	var buf bytes.Buffer
	c := NewChrome(&buf, 0)
	emit(c)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	return evs
}

func TestChromeValidJSONWithTracks(t *testing.T) {
	evs := exportEvents(t, func(c *Chrome) {
		c.Emit(Event{Time: 100, Cost: 50, Arg: 3, Proc: 0, Kind: PageFetch})
		c.Emit(Event{Time: 200, Cost: 20, Arg: 3, Proc: 1, Kind: NICOccupy})
		c.Emit(Event{Time: 300, Cost: 10, Arg: 5, Proc: 0, Kind: BusOccupy})
	})
	byPh := map[string][]chromeEvent{}
	for _, e := range evs {
		byPh[e.Ph] = append(byPh[e.Ph], e)
	}
	if len(byPh["X"]) != 3 {
		t.Errorf("got %d complete events, want 3", len(byPh["X"]))
	}
	// Processor events on pid 0, resources on pid 1 with distinct tid bases.
	var procNames, threadNames []string
	for _, e := range byPh["M"] {
		switch e.Name {
		case "process_name":
			procNames = append(procNames, e.Args["name"].(string))
		case "thread_name":
			threadNames = append(threadNames, e.Args["name"].(string))
		}
	}
	wantProcs := map[string]bool{"processors": false, "resources": false}
	for _, n := range procNames {
		wantProcs[n] = true
	}
	for n, seen := range wantProcs {
		if !seen {
			t.Errorf("missing process_name metadata for %q (got %v)", n, procNames)
		}
	}
	wantThreads := map[string]bool{"proc 0": false, "nic 1": false, "bus 0": false}
	for _, n := range threadNames {
		if _, ok := wantThreads[n]; ok {
			wantThreads[n] = true
		}
	}
	for n, seen := range wantThreads {
		if !seen {
			t.Errorf("missing thread_name metadata for %q (got %v)", n, threadNames)
		}
	}
	for _, e := range byPh["X"] {
		if e.Name == "NICOccupy" && (e.Pid != 1 || e.Tid != chromeNICBase+1) {
			t.Errorf("NICOccupy on pid=%d tid=%d, want pid=1 tid=%d", e.Pid, e.Tid, chromeNICBase+1)
		}
		if e.Name == "PageFetch" && (e.Pid != 0 || e.Tid != 0 || e.Ts != 100 || e.Dur != 50) {
			t.Errorf("PageFetch event wrong: %+v", e)
		}
	}
}

func TestChromeProcZeroTrackNamed(t *testing.T) {
	// Regression: the (pid=0, tid=0) thread key must not collide with the
	// pid-0 process key, or proc 0 loses its track name.
	evs := exportEvents(t, func(c *Chrome) {
		c.Emit(Event{Time: 1, Kind: PageFault, Proc: 0})
	})
	found := false
	for _, e := range evs {
		if e.Name == "thread_name" && e.Pid == 0 && e.Tid == 0 {
			found = true
		}
	}
	if !found {
		t.Error("no thread_name metadata for proc 0")
	}
}

func TestChromeCounterSamples(t *testing.T) {
	procs := make([]stats.Proc, 2)
	evs := exportEvents(t, func(c *Chrome) {
		procs[0].Cycles[stats.Compute] = 100
		c.Sample(1000, procs)
		procs[0].Cycles[stats.Compute] = 300
		procs[1].Cycles[stats.DataWait] = 40
		c.Sample(2000, procs)
	})
	var counters []chromeEvent
	for _, e := range evs {
		if e.Ph == "C" {
			counters = append(counters, e)
		}
	}
	if len(counters) != 4 {
		t.Fatalf("got %d counter events, want 4 (2 procs x 2 samples)", len(counters))
	}
	// Counter series are per-interval deltas, not cumulative values.
	for _, e := range counters {
		if e.Ts == 2000 && e.Tid == 0 {
			if got := e.Args["Compute"].(float64); got != 200 {
				t.Errorf("second-interval Compute delta = %v, want 200", got)
			}
		}
		if e.Ts == 2000 && e.Tid == 1 {
			if got := e.Args["DataWait"].(float64); got != 40 {
				t.Errorf("second-interval DataWait delta = %v, want 40", got)
			}
		}
	}
}
