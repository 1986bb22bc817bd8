// Package gateway implements hybridperf-gw: a stateless fan-out front
// for a sharded hybridperfd cluster. The gateway owns no models — it
// routes point requests (/v1/predict, /v1/advise) to the replica owning
// their (system, program) key on the same consistent-hash ring the
// replicas use, splits /v1/batch bodies into one sub-batch per owning
// shard, and partitions a /v1/sweep configuration space across every
// shard so the full-space evaluation parallelises over the cluster. It
// decodes, validates and renders with the replicas' own wire code
// (internal/api): a request it rejects gets exactly a replica's answer,
// and shard answers are merged back in the replicas' canonical order
// (sweep frontiers recomputed with the same pareto code), so a response
// through the gateway is byte-identical to the same request served by a
// single daemon.
//
// Degradation is graceful by construction: a dead shard costs the tuples
// it owned, not the request — the merged answer carries the surviving
// results plus one error annotation per failed shard, and only a request
// whose every sub-request failed becomes a 503.
package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hybridperf/internal/api"
	"hybridperf/internal/cluster"
	"hybridperf/internal/core"
	"hybridperf/internal/machine"
	"hybridperf/internal/pareto"
	"hybridperf/internal/telemetry"
)

// forwardedHeader mirrors the replicas' loop-prevention header. The
// gateway sets it on every sub-request: the gateway already routed by
// ownership (or is deliberately spreading a sweep), so the receiving
// shard must serve locally instead of adding a second hop.
const forwardedHeader = "X-Hybridperf-Forwarded"

// Gateway fans requests across a static shard list. Build with New,
// mount with Handler.
type Gateway struct {
	ring   *cluster.Ring
	peers  []string
	client *http.Client
	log    *slog.Logger
	reg    *telemetry.Registry
	start  time.Time

	// sample is the gateway's trace-sampling probability for requests
	// that arrive without a traceparent (see SetTraceSample); traces
	// retains this hop's completed payloads for the stitch endpoint.
	sample float64
	traces *telemetry.TraceStore

	mReq    *telemetry.CounterVec
	mFan    *telemetry.CounterVec
	mFanErr *telemetry.CounterVec
	mPeerUp *telemetry.GaugeVec
	mPreds  *telemetry.CounterVec
	mSimS   *telemetry.FloatCounterVec
	mEnergy *telemetry.FloatCounterVec
}

// New builds a gateway over the given shard base URLs (the same list, in
// any order, that each shard was given as -peers).
func New(peers []string, logger *slog.Logger) (*Gateway, error) {
	ring, err := cluster.New(peers, 0)
	if err != nil {
		return nil, err
	}
	if logger == nil {
		logger = slog.Default()
	}
	g := &Gateway{
		ring:   ring,
		peers:  ring.Peers(),
		client: &http.Client{},
		log:    logger,
		reg:    telemetry.NewRegistry(),
		start:  time.Now(),
	}
	g.mReq = g.reg.Counter("hybridperf_gateway_requests_total",
		"Requests served by the gateway, by route and status code.", "route", "code")
	g.mFan = g.reg.Counter("hybridperf_gateway_fanout_total",
		"Sub-requests dispatched to shards, by peer.", "peer")
	g.mFanErr = g.reg.Counter("hybridperf_gateway_fanout_errors_total",
		"Sub-requests that failed (transport error or non-2xx), by peer.", "peer")
	g.mPeerUp = g.reg.Gauge("hybridperf_gateway_peer_up",
		"Last /readyz probe outcome per shard: 1 reachable and healthy, 0 not.", "peer")
	g.mPreds = g.reg.Counter("hybridperf_gateway_predictions_total",
		"Predictions relayed to clients through the gateway, by route.", "route")
	g.mSimS = g.reg.FloatCounter("hybridperf_gateway_simulated_seconds_total",
		"Predicted application runtime (virtual seconds) summed over relayed predictions, by route.", "route")
	g.mEnergy = g.reg.FloatCounter("hybridperf_gateway_predicted_energy_joules_total",
		"Predicted energy (joules) summed over relayed predictions, by route.", "route")
	g.traces = telemetry.NewTraceStore(0)
	// Peers start unknown-down until the first probe, so the series exist
	// (and alert rules have a value) from the first scrape.
	for _, p := range g.peers {
		g.mPeerUp.With(p).Set(0)
	}
	g.reg.OnScrape(func(w io.Writer) {
		fmt.Fprintf(w, "# HELP hybridperf_gateway_uptime_seconds Seconds since the gateway started.\n"+
			"# TYPE hybridperf_gateway_uptime_seconds gauge\nhybridperf_gateway_uptime_seconds %g\n",
			time.Since(g.start).Seconds())
	})
	return g, nil
}

// Registry exposes the gateway's metric registry (tests).
func (g *Gateway) Registry() *telemetry.Registry { return g.reg }

// SetTraceSample sets the fraction of traceparent-less requests the
// gateway samples (0 = never, 1 = always). An incoming traceparent's
// sampled flag always wins, exactly as on the shards. Call before
// serving.
func (g *Gateway) SetTraceSample(p float64) { g.sample = p }

func (g *Gateway) sampleTrace() bool {
	if g.sample <= 0 {
		return false
	}
	if g.sample >= 1 {
		return true
	}
	return rand.Float64() < g.sample
}

// Handler returns the gateway's route table.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", g.observe("/v1/predict", g.handlePredict))
	mux.HandleFunc("POST /v1/batch", g.observe("/v1/batch", g.handleBatch))
	mux.HandleFunc("POST /v1/sweep", g.observe("/v1/sweep", g.handleSweep))
	mux.HandleFunc("POST /v1/advise", g.observe("/v1/advise", g.handleAdvise))
	mux.HandleFunc("GET /v1/systems", g.observe("/v1/systems", g.handleSystems))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		g.reg.WriteText(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", g.handleReady)
	mux.HandleFunc("GET /debug/trace/{traceid}", g.observe("/debug/trace/{traceid}", g.handleTraceByID))
	return mux
}

// observe wraps a handler with the request counter, the trace context
// (parsed from an incoming traceparent or minted here — the gateway is
// usually the edge that decides sampling for the whole chain) and one
// access-log line carrying the request and trace ids. Sampled requests
// record a span tree whose completed payload lands in the gateway's own
// trace store, one stitch source among the shards'.
func (g *Gateway) observe(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tc, fromWire := telemetry.ParseTraceparent(r.Header.Get(telemetry.TraceparentHeader))
		if fromWire {
			tc = tc.Child()
		} else {
			tc = telemetry.NewTrace(g.sampleTrace())
		}
		id := tc.RequestID()
		w.Header().Set("X-Request-Id", id)
		w.Header().Set(telemetry.TraceparentHeader, tc.Traceparent())
		ctx := telemetry.WithTraceContext(r.Context(), tc)
		var rt *telemetry.RequestTrace
		if tc.Sampled {
			rt = telemetry.NewRequestTrace(tc)
			ctx = telemetry.WithRequestTrace(ctx, rt)
		}
		sw := &telemetry.StatusWriter{ResponseWriter: w}
		h(sw, r.WithContext(ctx))
		if sw.Status == 0 {
			sw.Status = http.StatusOK
		}
		end := time.Now()
		if rt != nil {
			rt.AddSpan("http", r.Method+" "+route, start, end)
			g.traces.Put(rt.Payload("gateway"), true)
		}
		g.mReq.With(route, strconv.Itoa(sw.Status)).Inc()
		g.log.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("id", id),
			slog.String("trace", tc.TraceIDString()),
			slog.String("route", route),
			slog.Int("status", sw.Status),
			slog.Duration("duration", end.Sub(start)))
	}
}

// handleReady probes every shard's health endpoint and reports the live
// per-peer picture: a JSON document naming each peer's status (so an
// operator sees which shard is down, not just how many), with the same
// outcomes published as the hybridperf_gateway_peer_up gauge. The
// gateway is ready (200) when at least one shard is — a gateway with a
// fully dead cluster serves nothing but 503s, so it should not attract
// traffic.
func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	type probe struct {
		idx int
		ok  bool
	}
	results := make(chan probe, len(g.peers))
	for i, p := range g.peers {
		go func(i int, p string) {
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, p+"/healthz", nil)
			if err != nil {
				results <- probe{i, false}
				return
			}
			resp, err := g.client.Do(req)
			if err != nil {
				results <- probe{i, false}
				return
			}
			resp.Body.Close()
			results <- probe{i, resp.StatusCode == http.StatusOK}
		}(i, p)
	}
	okByPeer := make([]bool, len(g.peers))
	up := 0
	for range g.peers {
		p := <-results
		okByPeer[p.idx] = p.ok
		if p.ok {
			up++
		}
	}
	doc := api.Ready{Ready: up > 0, Up: up, Peers: make([]api.PeerStatus, len(g.peers))}
	for i, p := range g.peers {
		doc.Peers[i] = api.PeerStatus{Peer: p, Up: okByPeer[i]}
		var v int64
		if okByPeer[i] {
			v = 1
		}
		g.mPeerUp.With(p).Set(v)
	}
	w.Header().Set("Content-Type", "application/json")
	if up == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(doc)
}

// ---------------------------------------------------------------------
// Shard transport.

// shardStatusError is a shard's own non-2xx HTTP answer — as opposed to
// a transport failure (dial refused, reset, timeout). The distinction
// drives failover: a transport failure is worth trying the next replica,
// an HTTP answer would be identical everywhere.
type shardStatusError struct {
	peer    string
	status  int
	message string
	// retryAfter is the shard's own Retry-After header on a 429/503,
	// relayed to gateway clients so they honour the shard's backoff
	// rather than a hardcoded hint.
	retryAfter string
}

func (e *shardStatusError) Error() string {
	if e.message != "" {
		return fmt.Sprintf("shard %s: %s (status %d)", e.peer, e.message, e.status)
	}
	return fmt.Sprintf("shard %s: status %d", e.peer, e.status)
}

// post sends one sub-request to a shard and returns the response body
// and headers. Non-2xx answers are errors carrying the shard's error
// message (and its Retry-After hint, when present), so the annotation on
// a partial result explains the failure, not just names it.
func (g *Gateway) post(r *http.Request, peer, path string, body []byte, stream bool) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, "gateway")
	if stream {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	// Each fan-out leg is one hop of the request's trace: same trace id
	// and sampling decision, a fresh span id — so a sampled request
	// through the gateway samples on every shard it touches, and the
	// stitch endpoint can collect all their payloads under one id.
	if tc, ok := telemetry.TraceContextFrom(r.Context()); ok {
		req.Header.Set(telemetry.TraceparentHeader, tc.Child().Traceparent())
	}
	endFan := telemetry.RequestTraceFrom(r.Context()).Span("gateway", "fanout "+peer+path)
	defer endFan()
	g.mFan.With(peer).Inc()
	resp, err := g.client.Do(req)
	if err != nil {
		g.mFanErr.With(peer).Inc()
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		g.mFanErr.With(peer).Inc()
		return nil, resp.Header, err
	}
	if resp.StatusCode/100 != 2 {
		g.mFanErr.With(peer).Inc()
		var envelope api.ErrorBody
		json.Unmarshal(out, &envelope)
		// The body rides along so a caller can relay the shard's own error
		// envelope verbatim (relay does).
		return out, resp.Header, &shardStatusError{
			peer: peer, status: resp.StatusCode, message: envelope.Error,
			retryAfter: resp.Header.Get("Retry-After"),
		}
	}
	return out, resp.Header, nil
}

// handlePredict proxies a point request to the owner of its model key
// (see relay); its cost is the one prediction the answer carries.
func (g *Gateway) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, ok := api.ReadBody(w, r, api.MaxBodyBytes)
	if !ok {
		return
	}
	var req api.PredictRequest
	if err := api.DecodePredict(body, &req); err != nil {
		api.BadBody(w, err)
		return
	}
	g.relay(w, r, "/v1/predict", req.System, req.Program, req.Engine, body,
		func(out []byte, _ http.Header) (api.Cost, bool) {
			var pred api.PredictResponse
			err := json.Unmarshal(out, &pred)
			return api.Cost{Predictions: 1, SimSeconds: pred.TimeS, EnergyJ: pred.EnergyJ}, err == nil
		})
}

// handleAdvise proxies an advisory request to the owner of its model key
// (see relay), document or NDJSON stream. Its cost — the simulations it
// ran, which the body does not list — comes from the shard's
// attribution headers.
func (g *Gateway) handleAdvise(w http.ResponseWriter, r *http.Request) {
	body, ok := api.ReadBody(w, r, api.MaxBodyBytes)
	if !ok {
		return
	}
	var req api.AdviseRequest
	if err := api.DecodeAdvise(body, &req); err != nil {
		api.BadBody(w, err)
		return
	}
	g.relay(w, r, "/v1/advise", req.System, req.Program, req.Engine, body,
		func(_ []byte, hdr http.Header) (api.Cost, bool) {
			preds, err := strconv.Atoi(hdr.Get(telemetry.PredictionsHeader))
			simS, _ := strconv.ParseFloat(hdr.Get(telemetry.SimSecondsHeader), 64)
			energyJ, _ := strconv.ParseFloat(hdr.Get(telemetry.EnergyHeader), 64)
			return api.Cost{Predictions: preds, SimSeconds: simS, EnergyJ: energyJ}, err == nil
		})
}

// relay proxies a decoded point request's body to the owner of its
// model key, falling through the ring-walk order when the owner is down
// — any replica serves any key bit-identically, so failover costs at
// most a campaign on the fallback shard. The answer is relayed verbatim,
// so it is byte-identical to the owning shard's; its cost, read by cost,
// is stamped on and aggregated into the gateway's per-route series.
func (g *Gateway) relay(w http.ResponseWriter, r *http.Request, route, system, program, engine string, body []byte,
	cost func(out []byte, hdr http.Header) (api.Cost, bool)) {
	if err := api.CheckEngine(engine); err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	stream := api.WantStream(r)
	var errs []string
	for _, peer := range g.ring.Order(cluster.ModelKey(system, program)) {
		out, hdr, err := g.post(r, peer, route, body, stream)
		if err == nil {
			if c, ok := cost(out, hdr); ok {
				g.applyAttribution(w, route, c)
			}
			ct := hdr.Get("Content-Type")
			if ct == "" {
				ct = "application/json"
			}
			w.Header().Set("Content-Type", ct)
			w.Write(out)
			return
		}
		errs = append(errs, err.Error())
		// A shard that produced its own HTTP answer (4xx/5xx) would answer
		// every peer's identical computation the same way: relay its
		// status — and its backoff hint — instead of burning failover hops.
		var httpErr *shardStatusError
		if errors.As(err, &httpErr) {
			if httpErr.retryAfter != "" {
				w.Header().Set("Retry-After", httpErr.retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(httpErr.status)
			w.Write(out)
			return
		}
	}
	api.Error(w, http.StatusServiceUnavailable, "no shard could serve the request: %s", strings.Join(errs, "; "))
}

// handleSystems proxies the capability document from the first live
// shard — it is identical on every replica (same binary, same catalogue).
func (g *Gateway) handleSystems(w http.ResponseWriter, r *http.Request) {
	for _, peer := range g.peers {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, peer+"/v1/systems", nil)
		if err != nil {
			continue
		}
		resp, err := g.client.Do(req)
		if err != nil {
			g.mFanErr.With(peer).Inc()
			continue
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			g.mFanErr.With(peer).Inc()
			continue
		}
		if etag := resp.Header.Get("ETag"); etag != "" {
			w.Header().Set("ETag", etag)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out)
		return
	}
	api.Error(w, http.StatusServiceUnavailable, "no shard reachable")
}

// ---------------------------------------------------------------------
// /v1/batch fan-out.

func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := api.ReadBody(w, r, api.MaxBatchBodyBytes)
	if !ok {
		return
	}
	var req api.BatchRequest
	if err := api.DecodeBatch(body, &req); err != nil {
		api.BadBody(w, err)
		return
	}
	if err := api.CheckEngine(req.Engine); err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Validate and canonicalise exactly as a shard does: a bad request
	// fails here with the 400 a shard would answer, without touching the
	// cluster, and the canonical tuple list is the merge order.
	_, canon, err := api.CanonBatch(&req, api.Lookup, nil, nil)
	if err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Partition by owning shard: every tuple of one (system, program)
	// group lands on the replica that owns — and has, or will
	// characterise and keep — that model.
	byOwner := map[string][]api.BatchTuple{}
	for _, t := range req.Tuples {
		owner := g.ring.Owner(cluster.ModelKey(t.System, t.Program))
		byOwner[owner] = append(byOwner[owner], t)
	}

	type shardOut struct {
		peer    string
		tuples  int
		results []api.BatchResult
		err     error
	}
	outs := make([]shardOut, 0, len(byOwner))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for owner, tuples := range byOwner {
		wg.Add(1)
		go func(owner string, tuples []api.BatchTuple) {
			defer wg.Done()
			sub := api.MustJSON(api.BatchRequest{Class: req.Class, Engine: req.Engine, Workers: req.Workers, Tuples: tuples})
			out := shardOut{peer: owner, tuples: len(tuples)}
			raw, _, err := g.post(r, owner, "/v1/batch", sub, false)
			if err == nil {
				var parsed api.BatchResponse
				if uerr := json.Unmarshal(raw, &parsed); uerr != nil {
					err = fmt.Errorf("shard %s: unparseable answer: %w", owner, uerr)
				} else {
					out.results = parsed.Results
				}
			}
			out.err = err
			mu.Lock()
			outs = append(outs, out)
			mu.Unlock()
		}(owner, tuples)
	}
	wg.Wait()

	for _, o := range outs {
		if relayClientError(w, o.err) {
			return
		}
	}
	// Each shard answers its own tuples in canonical order, so the merge
	// walks the canonical list and takes each tuple's result from its
	// owner's answer in turn; an owner whose answer does not hold exactly
	// its share of the list failed.
	owners := make([]string, len(canon))
	share := map[string]int{}
	for i, t := range canon {
		if i > 0 && t.System == canon[i-1].System && t.Program == canon[i-1].Program {
			owners[i] = owners[i-1]
		} else {
			owners[i] = g.ring.Owner(cluster.ModelKey(t.System, t.Program))
		}
		share[owners[i]]++
	}
	results := make(map[string][]api.BatchResult, len(outs))
	var shardErrs []api.ShardError
	var failures []error
	for _, o := range outs {
		if o.err == nil && len(o.results) != share[o.peer] {
			o.err = fmt.Errorf("shard %s: %d results for %d tuples", o.peer, len(o.results), share[o.peer])
		}
		if o.err != nil {
			g.log.LogAttrs(r.Context(), slog.LevelWarn, "batch sub-request failed",
				slog.String("peer", o.peer), slog.Any("err", o.err))
			shardErrs = append(shardErrs, api.ShardError{Shard: o.peer, Error: o.err.Error(), Tuples: o.tuples})
			failures = append(failures, o.err)
			continue
		}
		results[o.peer] = o.results
	}
	merged := make([]api.BatchResult, 0, len(canon))
	groups := 0
	for i, t := range canon {
		res, ok := results[owners[i]]
		if !ok {
			continue
		}
		if n := len(merged); n == 0 || merged[n-1].System != t.System || merged[n-1].Program != t.Program {
			groups++
		}
		merged = append(merged, res[0])
		results[owners[i]] = res[1:]
	}
	if len(merged) == 0 {
		w.Header().Set("Retry-After", retryAfterHint(failures))
		api.Error(w, http.StatusServiceUnavailable, "all owning shards failed: %s", joinShardErrors(shardErrs))
		return
	}
	sortShardErrors(shardErrs)
	doc, cost := api.RenderBatch(nil, api.Class(req.Class), groups, shardErrs, len(merged), func(i int) api.BatchResult {
		return merged[i]
	})
	g.applyAttribution(w, "/v1/batch", cost)
	doc.Write(w, r)
}

// relayClientError relays a shard's 4xx answer as this request's answer
// and reports whether it did. A 4xx means the request itself is bad
// (invalid tuple, bad class, shed by admission control) — every shard
// would say the same, so annotating it as a degraded shard would turn a
// caller bug into a silent partial result.
func relayClientError(w http.ResponseWriter, err error) bool {
	var he *shardStatusError
	if !errors.As(err, &he) || he.status < 400 || he.status >= 500 {
		return false
	}
	if he.status == http.StatusTooManyRequests {
		// The shard's own backoff hint wins; "1" only when it sent none.
		ra := he.retryAfter
		if ra == "" {
			ra = "1"
		}
		w.Header().Set("Retry-After", ra)
	}
	if he.message != "" {
		api.Error(w, he.status, "%s", he.message)
	} else {
		api.Error(w, he.status, "%s", he.Error())
	}
	return true
}

func joinShardErrors(errs []api.ShardError) string {
	parts := make([]string, len(errs))
	for i, e := range errs {
		parts[i] = e.Error
	}
	return strings.Join(parts, "; ")
}

func sortShardErrors(errs []api.ShardError) {
	sort.Slice(errs, func(i, j int) bool { return errs[i].Shard < errs[j].Shard })
}

// retryAfterHint returns the first shard-provided Retry-After among errs,
// falling back to "1" when no shard offered its own backoff.
func retryAfterHint(errs []error) string {
	for _, err := range errs {
		var he *shardStatusError
		if errors.As(err, &he) && he.retryAfter != "" {
			return he.retryAfter
		}
	}
	return "1"
}

// ---------------------------------------------------------------------
// /v1/sweep fan-out.

func (g *Gateway) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, ok := api.ReadBody(w, r, api.MaxBodyBytes)
	if !ok {
		return
	}
	var req api.SweepRequest
	if err := api.DecodeSweep(body, &req); err != nil {
		api.BadBody(w, err)
		return
	}
	if err := api.CheckEngine(req.Engine); err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	sw, err := api.ResolveSweep(&req)
	if err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Enumerate the full configuration space exactly as one daemon would
	// — its order is the canonical response order — and cut it into one
	// contiguous chunk per shard. A sweep is a single model key, so this
	// deliberately ignores ownership: the win is evaluating N chunks in
	// parallel, at the cost of each shard characterising (once,
	// warm-loadable from a shared model store) the swept model.
	chunks := chunkConfigs(sw.Space(req.Pow2), len(g.peers))

	type chunkOut struct {
		peer string
		pts  []pareto.Point
		err  error
	}
	outs := make([]chunkOut, len(chunks))
	var wg sync.WaitGroup
	for i, chunk := range chunks {
		wg.Add(1)
		go func(i int, chunk []machine.Config) {
			defer wg.Done()
			peer := g.peers[i%len(g.peers)]
			pts, err := g.evalChunk(r, peer, req, sw.Class, chunk)
			outs[i] = chunkOut{peer: peer, pts: pts, err: err}
		}(i, chunk)
	}
	wg.Wait()

	for _, o := range outs {
		if relayClientError(w, o.err) {
			return
		}
	}
	var points []pareto.Point
	var shardErrs []api.ShardError
	var failures []error
	for i, o := range outs {
		if o.err != nil {
			g.log.LogAttrs(r.Context(), slog.LevelWarn, "sweep chunk failed",
				slog.String("peer", o.peer), slog.Any("err", o.err))
			shardErrs = append(shardErrs, api.ShardError{Shard: o.peer, Error: o.err.Error(), Tuples: len(chunks[i])})
			failures = append(failures, o.err)
			continue
		}
		points = append(points, o.pts...)
	}
	if len(points) == 0 {
		w.Header().Set("Retry-After", retryAfterHint(failures))
		api.Error(w, http.StatusServiceUnavailable, "all shards failed: %s", joinShardErrors(shardErrs))
		return
	}
	sortShardErrors(shardErrs)

	// The merge proper: one frontier over every shard's points, computed
	// and rendered by the same code a single daemon runs, over the same
	// values (floats survive the JSON hop bit-exactly) in the same
	// enumeration order — so the merged frontier is the frontier.
	sum := api.SweepSummary{System: req.System, Program: req.Program, Class: sw.Class,
		Configs: len(points), ShardErrors: shardErrs}
	doc, cost := api.RenderSweep(sum, points, pareto.Frontier(points), req.DeadlineS, req.BudgetJ)
	g.applyAttribution(w, "/v1/sweep", cost)
	doc.Write(w, r)
}

// evalChunk evaluates one contiguous slice of the sweep space on one
// shard via /v1/batch, returning the points (exact catalogue
// configurations, wire-parsed objectives) in chunk order.
func (g *Gateway) evalChunk(r *http.Request, peer string, req api.SweepRequest, class string, chunk []machine.Config) ([]pareto.Point, error) {
	tuples := make([]api.BatchTuple, len(chunk))
	for i, cfg := range chunk {
		tuples[i] = api.BatchTuple{
			System: req.System, Program: req.Program,
			Nodes: cfg.Nodes, Cores: cfg.Cores, FreqGHz: cfg.Freq / 1e9,
		}
	}
	sub := api.MustJSON(api.BatchRequest{Class: class, Engine: req.Engine, Workers: req.Workers, Tuples: tuples})
	raw, _, err := g.post(r, peer, "/v1/batch", sub, false)
	if err != nil {
		return nil, err
	}
	var parsed api.BatchResponse
	if err := json.Unmarshal(raw, &parsed); err != nil {
		return nil, fmt.Errorf("shard %s: unparseable answer: %w", peer, err)
	}
	if len(parsed.Results) != len(chunk) {
		return nil, fmt.Errorf("shard %s: %d results for %d configs", peer, len(parsed.Results), len(chunk))
	}
	// A chunk enumerates distinct configs in canonical order, so the
	// shard's canonical response order is the chunk order: zip by index.
	pts := make([]pareto.Point, len(chunk))
	for i, cfg := range chunk {
		res := parsed.Results[i]
		pts[i] = pareto.Point{Cfg: cfg, Pred: core.Prediction{
			Cfg: cfg, T: res.TimeS, E: res.EnergyJ, UCR: res.UCR,
		}}
	}
	return pts, nil
}

// chunkConfigs cuts cfgs into up to n contiguous, near-equal chunks
// (never empty ones).
func chunkConfigs(cfgs []machine.Config, n int) [][]machine.Config {
	if n > len(cfgs) {
		n = len(cfgs)
	}
	if n < 1 {
		n = 1
	}
	chunks := make([][]machine.Config, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(cfgs)/n, (i+1)*len(cfgs)/n
		if lo < hi {
			chunks = append(chunks, cfgs[lo:hi])
		}
	}
	return chunks
}
