// Command hybridperf-gw fronts a sharded hybridperfd cluster: it relays
// POST /v1/predict, /v1/advise and /v1/sweep to the replica owning the
// model key (consistent hash over the same -peers list the replicas run
// with), failing over along the ring when the owner is down, and sends a
// POST /v1/batch whole to its owner when one replica owns every tuple,
// or else splits it into one sub-batch per owning shard and splices the
// shards' result fragments back in canonical order. Every answer is
// byte-identical to a single daemon's when all shards are up. When a
// shard owning part of a split batch is down the answer is partial and
// carries per-shard error annotations ("shard_errors"); only a batch
// whose every owner failed returns 503. Shard backoff hints survive the
// relay: a 429/503 carries the shard's own Retry-After value when it
// sent one.
//
// The gateway is stateless: no models, no cache, no store. Run as many
// as you like behind a plain load balancer.
//
// Usage:
//
//	hybridperf-gw -addr :8079 -peers http://127.0.0.1:8081,http://127.0.0.1:8082
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

	"hybridperf/internal/gateway"
)

func main() {
	var (
		addr     = flag.String("addr", ":8079", "listen address")
		peers    = flag.String("peers", "", "comma-separated shard base URLs, e.g. http://a:8080,http://b:8080 (required)")
		logFmt   = flag.String("log", "text", "request log format: text or json")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn or error")
		traceSmp = flag.Float64("trace-sample", 0, "fraction of traceparent-less requests the gateway samples for distributed tracing; stitched traces at /debug/trace/{traceid} (0 = off)")
	)
	flag.Parse()

	if *peers == "" {
		fmt.Fprintln(os.Stderr, "hybridperf-gw: -peers is required")
		os.Exit(2)
	}
	var list []string
	for _, p := range strings.Split(*peers, ",") {
		list = append(list, strings.TrimSpace(p))
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "hybridperf-gw: bad -log-level %q\n", *logLevel)
		os.Exit(2)
	}
	opts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	switch *logFmt {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, opts)
	default:
		fmt.Fprintf(os.Stderr, "hybridperf-gw: bad -log %q (want text or json)\n", *logFmt)
		os.Exit(2)
	}
	logger := slog.New(handler)

	gw, err := gateway.New(list, logger)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hybridperf-gw: %v\n", err)
		os.Exit(2)
	}
	gw.SetTraceSample(*traceSmp)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "shards", len(list))

	select {
	case err := <-errc:
		logger.Error("listen failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("shutdown", "err", err)
		os.Exit(1)
	}
}
