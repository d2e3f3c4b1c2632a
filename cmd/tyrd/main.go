// Command tyrd serves the TYR simulators over HTTP: the tyr-api/v1
// endpoints /v1/compile, /v1/run, /v1/sweep, /v1/healthz, /v1/metrics, and
// the /v1/debug/requests flight-recorder dumps.
//
//	tyrd [-addr :8080] [-workers N] [-queue N] [-timeout 30s] [-cache-size 64]
//	     [-peers host:port,...] [-partial-timeout 60s] [-peer-retries 1]
//	     [-debug-addr 127.0.0.1:8081] [-flight-ring 64] [-flight-slow 500ms]
//	     [-flight-sample 64] [-flight-trace-events 8192]
//
// -peers turns the instance into a fleet coordinator: a full-grid /v1/sweep
// is split into contiguous cell-range partials fanned out to the peers
// (plain tyrd instances — a peer needs no flags) and merged by cell index,
// so the distributed result is cell-for-cell identical to a local one. A
// failed or timed-out peer's partial is re-shed onto the remaining peers or
// run locally; -partial-timeout bounds each remote attempt and
// -peer-retries caps re-sheds per partial before it is forced local.
//
// Simulations execute on a bounded worker pool with a bounded queue, one
// request per worker at a time: that pool is where the service's
// parallelism lives. When both are full the service sheds load with 429
// instead of stacking up goroutines, and once a drain starts it answers
// 503. A simulation that panics fails its own request with a 500 (counted
// in tyrd_panics_total); the worker and every other request carry on.
// Every request carries a deadline (its exec.deadline_ms, or -timeout)
// that cancels the engine cooperatively at the next cycle boundary;
// inline-source oracle runs are bounded the same way plus a
// -oracle-max-steps instruction budget. SIGTERM or SIGINT starts a
// graceful drain: in-flight requests finish, new ones are refused, and the
// process exits once the pool is idle.
//
// Every request gets a trace ID (Tyr-Trace-Id response header, stamped on
// its log line and on error bodies), and the last -flight-ring completed
// workload requests are retrievable at GET /v1/debug/requests[/{id}] —
// slow (-flight-slow), failed, and sampled (every -flight-sample'th)
// requests retain their full engine event capture. -debug-addr opens a
// second listener with the stdlib pprof endpoints plus the same flight
// dumps, kept off the serving port so it can stay loopback-only.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "queued submissions beyond the workers (0 = 4x workers)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "upper bound on a request's timeout_ms")
	cacheSize := flag.Int("cache-size", 64, "compiled-graph LRU capacity")
	peers := flag.String("peers", "", "comma-separated peer tyrd addresses (host:port) to fan sweeps out to (empty = single instance)")
	partialTimeout := flag.Duration("partial-timeout", 60*time.Second, "per-partial deadline for fanned-out sweep requests")
	peerRetries := flag.Int("peer-retries", 1, "remote re-sheds per failed sweep partial before it runs locally")
	oracleSteps := flag.Int64("oracle-max-steps", 0, "dynamic-instruction budget for inline-source oracle runs (0 = 2^32)")
	drain := flag.Duration("drain", 2*time.Minute, "grace period for in-flight requests on shutdown")
	debugAddr := flag.String("debug-addr", "", "optional second listener for pprof and flight dumps (e.g. 127.0.0.1:8081; empty = off)")
	flightRing := flag.Int("flight-ring", 0, "completed requests retained in the flight recorder (0 = 64)")
	flightSlow := flag.Duration("flight-slow", 0, "latency above which a request's engine trace is always retained (0 = 500ms)")
	flightSample := flag.Int("flight-sample", 0, "retain the engine trace of every Nth request (0 = 64, negative = off)")
	flightEvents := flag.Int("flight-trace-events", 0, "per-request engine-trace capture ring, in events (0 = 8192)")
	flag.Parse()

	log := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	srv := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		GraphCacheSize: *cacheSize,
		Peers:          peerList,
		PartialTimeout: *partialTimeout,
		PeerRetries:    *peerRetries,
		OracleMaxSteps: *oracleSteps,
		Logger:         log,
		Flight: obs.Config{
			RingSize:      *flightRing,
			SlowThreshold: *flightSlow,
			SampleEvery:   *flightSample,
			TraceEvents:   *flightEvents,
		},
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Info("tyrd listening", "addr", *addr)

	// The debug listener is best-effort: losing pprof should never take
	// down serving, so its errors are logged, not fatal.
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           srv.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("debug listener failed", "err", err)
			}
		}()
		log.Info("tyrd debug listening", "addr", *debugAddr)
	}

	select {
	case err := <-errc:
		log.Error("listen failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: Shutdown stops accepting connections and waits for
	// active handlers (which wait for their pool jobs); Close then waits for
	// anything still queued in the pool.
	log.Info("draining", "grace", drain.String())
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
	}
	if debugSrv != nil {
		debugSrv.Shutdown(shCtx)
	}
	srv.Close()
	log.Info("drained, exiting")
}
