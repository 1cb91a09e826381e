// Command serve runs the simulation-serving layer: an HTTP service over the
// experiment cache, with a persistent result store, cross-request
// singleflight, bounded admission, per-request timeouts, and graceful drain
// on SIGTERM/SIGINT.
//
//	serve -addr :8080 -store /var/cache/svmsim
//
// Endpoints: /run (the exact `svmsim -json` bytes for a spec), /figures,
// /healthz (503 once drain begins, so a load balancer stops routing here),
// /metrics. See internal/server for the full contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	_ "repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	storeDir := flag.String("store", "", "persistent result store directory (empty = in-memory cache only)")
	storeMax := flag.Int("store-max", 8192, "GC the store down to this many entries (0 = unbounded)")
	storeMaxAge := flag.Duration("store-max-age", 0, "GC store entries not used within this duration (0 = no age bound)")
	inflight := flag.Int("inflight", runtime.GOMAXPROCS(0), "max concurrently executing requests")
	queue := flag.Int("queue", 64, "max requests waiting for a slot before shedding with 429")
	timeout := flag.Duration("timeout", 120*time.Second, "per-request deadline")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown budget after SIGTERM/SIGINT")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix("serve: ")

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		gc := func() {
			if evicted, err := st.GC(store.GCPolicy{MaxEntries: *storeMax, MaxAge: *storeMaxAge}); err != nil {
				log.Printf("store GC: %v", err)
			} else if evicted > 0 {
				log.Printf("store GC: evicted %d entries", evicted)
			}
		}
		gc()
		go func() {
			for range time.Tick(5 * time.Minute) {
				gc()
			}
		}()
		log.Printf("store %s (fingerprint %s)", st.Dir(), store.Fingerprint())
	}

	memo := harness.NewMemo(st)
	handler := server.New(server.Config{
		Memo:        memo,
		MaxInflight: *inflight,
		MaxQueue:    *queue,
		Timeout:     *timeout,
	})
	srv := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("listening on %s (inflight %d, queue %d, timeout %s)", *addr, *inflight, *queue, *timeout)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	// Flip /healthz to 503 FIRST: a load balancer stops steering traffic
	// here while in-flight requests finish below.
	handler.Drain()
	log.Printf("draining (up to %s)...", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	fmt.Fprintf(os.Stderr, "serve: cache: %s\n", memo.Stats())
}
