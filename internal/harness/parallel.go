package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Cell names one (application, version, platform) experiment of a figure's
// matrix at a runner's processor count. Speedup marks cells whose figure
// divides by the uniprocessor baseline, so pre-execution must compute that
// too.
type Cell struct {
	App      string
	Version  string
	Platform string
	Speedup  bool
}

// RunParallel pre-executes cells through the runner's memo cache with a
// bounded pool of at most workers concurrent simulations (GOMAXPROCS when
// workers <= 0). Each simulation is single-threaded by design, so the pool
// is what turns idle host cores into figure throughput.
//
// Duplicate cells and shared uniprocessor baselines execute exactly once
// (the runner's singleflight memoization), and failures are memoized like
// results, so rendering a figure afterwards reads pure cache: its output is
// byte-identical to a fully serial run, and per-cell errors surface as error
// rows there and in FailedCells rather than being returned here.
func (r *Runner) RunParallel(workers int, cells []Cell) {
	ForEach(context.Background(), workers, cells, func(c Cell) {
		// Errors are memoized per cell; renderers and FailedCells
		// report them.
		if c.Speedup {
			_, _ = r.Speedup(c.App, c.Version, c.Platform)
		} else {
			_, _ = r.Run(c.App, c.Version, c.Platform)
		}
	})
}

// CheckWorkers rejects a command-line worker count below 1. The commands'
// -workers flags default to GOMAXPROCS, so an explicit 0 or negative value
// is a mistake to report, not a request for ForEach's GOMAXPROCS fallback.
func CheckWorkers(n int) error {
	if n < 1 {
		return fmt.Errorf("bad -workers %d (want a positive integer)", n)
	}
	return nil
}

// ForEach calls fn once per item from a pool of at most workers goroutines
// (GOMAXPROCS when workers <= 0) and returns when every started call has
// finished. Once ctx is done it stops handing out items; calls already in
// flight run to completion, and the remaining items are never passed to fn.
// It is the one worker pool behind figure pre-execution (RunParallel) and
// campaign execution.
func ForEach[T any](ctx context.Context, workers int, items []T, fn func(T)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(items))
	work := make(chan T)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				fn(it)
			}
		}()
	}
	for _, it := range items {
		if ctx.Err() != nil {
			break
		}
		select {
		case work <- it:
		case <-ctx.Done():
		}
	}
	close(work)
	wg.Wait()
}
