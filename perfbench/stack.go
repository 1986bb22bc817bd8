package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"hybridperf/internal/gateway"
	"hybridperf/internal/modelstore"
	"hybridperf/internal/telemetry"
)

// discardHandler drops every record before it is formatted: the servers
// run with a discard logger, so request logging costs nothing here.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

var discardLogger = slog.New(discardHandler{})

// serverConfig is hybridperfd's default configuration (seed 42, a
// 512-entry response cache with a 5 min TTL, workers = GOMAXPROCS) with a
// discard logger. The engine is left to the package default, and the
// benchmark never sets $HYBRIDPERF_ENGINE, so a change of default engine
// shows up in the numbers.
func serverConfig(store *modelstore.Store) telemetry.Config {
	return telemetry.Config{
		Seed:             42,
		Logger:           discardLogger,
		ResponseCache:    512,
		ResponseCacheTTL: 5 * time.Minute,
		ModelStore:       store,
	}
}

// shard is one hybridperfd instance served on a loopback port.
type shard struct {
	srv  *telemetry.Server
	http *httptest.Server
}

// stack is the system under test: one shard (batch-direct, advise-des) or
// a gateway in front of two shards (mixed-gateway).
type stack struct {
	entry    string // base URL the clients send to
	shards   []*shard
	gw       *gateway.Gateway
	gwHTTP   *httptest.Server
	storeDir string
	// warm holds the duration of every Server.Warm call of the boot.
	warm []time.Duration
	// tracer, when set, wraps every handler with a span recorder.
	tracer *tracer
}

// boot builds the stack of a workload and returns once every server
// answers /readyz. dir receives the model store, if the workload has one.
func boot(workload, dir string, tr *tracer) (*stack, error) {
	st := &stack{tracer: tr}
	switch workload {
	case wlBatchDirect, wlAdviseDES:
		sh, err := st.startShard(nil, true)
		if err != nil {
			return nil, err
		}
		st.entry = sh.http.URL
	case wlMixedGateway:
		st.storeDir = dir
		store, err := modelstore.Open(dir)
		if err != nil {
			return nil, fmt.Errorf("model store: %w", err)
		}
		// Shard 1 characterises and writes the snapshots; shard 2 boots
		// warm from them.
		if _, err := st.startShard(store, true); err != nil {
			return nil, err
		}
		if _, err := st.startShard(store, false); err != nil {
			st.close()
			return nil, err
		}
		peers := []string{st.shards[0].http.URL, st.shards[1].http.URL}
		gw, err := gateway.New(peers, discardLogger)
		if err != nil {
			st.close()
			return nil, err
		}
		st.gw = gw
		st.gwHTTP = httptest.NewServer(tr.wrap(layerGateway, gw.Handler()))
		st.entry = st.gwHTTP.URL
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	urls := []string{st.entry}
	for _, sh := range st.shards {
		urls = append(urls, sh.http.URL)
	}
	for _, u := range urls {
		if err := waitReady(u); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// startShard builds one server, warms all twelve models when asked, and
// serves it on a loopback port.
func (st *stack) startShard(store *modelstore.Store, warm bool) (*shard, error) {
	srv := telemetry.NewServer(serverConfig(store))
	if warm {
		for _, sys := range systems {
			for _, prog := range programs {
				t0 := time.Now()
				if err := srv.Warm(sys, prog); err != nil {
					return nil, fmt.Errorf("warm %s/%s: %w", sys, prog, err)
				}
				d := time.Since(t0)
				st.warm = append(st.warm, d)
				if tr := st.tracer; tr != nil {
					tr.add(span{Name: layerWarm, Route: sys + "/" + prog, Start: int64(t0.Sub(tr.epoch)), End: int64(t0.Sub(tr.epoch) + d)})
				}
			}
		}
	}
	srv.SetReady(true)
	sh := &shard{srv: srv, http: httptest.NewServer(st.tracer.wrap(layerShard, srv.Handler()))}
	st.shards = append(st.shards, sh)
	return sh, nil
}

func waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready (last error %v)", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops every server of the stack and removes its model store.
func (st *stack) close() {
	if st.gwHTTP != nil {
		st.gwHTTP.Close()
	}
	for _, sh := range st.shards {
		sh.http.Close()
	}
	if st.storeDir != "" {
		os.RemoveAll(st.storeDir)
	}
}

// metricURLs lists every /metrics endpoint of the stack.
func (st *stack) metricURLs() []string {
	var out []string
	if st.gwHTTP != nil {
		out = append(out, st.gwHTTP.URL+"/metrics")
	}
	for _, sh := range st.shards {
		out = append(out, sh.http.URL+"/metrics")
	}
	return out
}

// storePath is the model-store directory of one boot.
func storePath(workDir string, boot int) string {
	return filepath.Join(workDir, fmt.Sprintf("store-%d", boot))
}
