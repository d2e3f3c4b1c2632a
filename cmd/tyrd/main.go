// Command tyrd serves the TYR simulators over HTTP: the tyr-api/v1
// endpoints /v1/compile, /v1/run, /v1/sweep, /v1/healthz, /v1/metrics, and
// the /v1/debug/requests flight-recorder dumps.
//
//	tyrd [-addr :8080] [-workers N] [-queue N] [-timeout 30s]
//	     [-debug-addr 127.0.0.1:8081] [-flight-ring 64] [-flight-slow 500ms]
//	     [-flight-sample 64] [-flight-trace-events 8192]
//
// Simulations execute on a bounded worker pool with a bounded queue, one
// simulation per worker at a time: that pool is where the service's
// parallelism lives. A /v1/sweep spreads its cells over whichever workers
// are idle, one cell at a time, and replies with them in grid order. When
// the pool and the queue are full the service sheds load with 429
// instead of stacking up goroutines, and once a drain starts it answers
// 503. A simulation that panics fails its own request with a 500 (counted
// in tyrd_panics_total); the worker and every other request carry on.
// A bundled kernel's graphs are compiled on first use and shared by every
// later run of it; an inline source is compiled once per request.
// Every request carries a deadline (its exec.deadline_ms, or -timeout)
// that cancels the engine cooperatively at the next cycle boundary;
// inline-source oracle runs are bounded the same way plus a
// -oracle-max-steps instruction budget. SIGTERM or SIGINT starts a
// graceful drain: in-flight requests finish, new ones are refused, and the
// process exits once the pool is idle.
//
// Every request gets a trace ID (Tyr-Trace-Id response header, stamped on
// its log line and on error bodies), and the last -flight-ring completed
// workload requests are retrievable at GET /v1/debug/requests[/{id}],
// each flagged slow (-flight-slow), failed, or sampled. Only sampled
// requests (every -flight-sample'th, starting with the first) capture
// their engine event stream; the rest run their engines untraced, so a
// slow or failed request carries an engine capture only if it was also
// sampled (-flight-sample 1 captures every request). -debug-addr opens a
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
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "upper bound on a request's exec.deadline_ms")
	oracleSteps := flag.Int64("oracle-max-steps", 0, "dynamic-instruction budget for inline-source oracle runs (0 = 2^32)")
	drain := flag.Duration("drain", 2*time.Minute, "grace period for in-flight requests on shutdown")
	debugAddr := flag.String("debug-addr", "", "optional second listener for pprof and flight dumps (e.g. 127.0.0.1:8081; empty = off)")
	flightRing := flag.Int("flight-ring", 0, "completed requests retained in the flight recorder (0 = 64)")
	flightSlow := flag.Duration("flight-slow", 0, "latency above which a flight record is flagged slow (0 = 500ms)")
	flightSample := flag.Int("flight-sample", 0, "capture the engine trace of every Nth request, starting with the first (0 = 64, 1 = every request, negative = none)")
	flightEvents := flag.Int("flight-trace-events", 0, "per-request engine-trace capture ring, in events (0 = 8192)")
	flag.Parse()

	log := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	srv := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
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
