// Package gateway implements hybridperf-gw: a stateless front for a
// sharded hybridperfd cluster. The gateway owns no models — it routes
// each request to the replica owning its (system, program) key on the
// same consistent-hash ring the replicas use. Point requests and sweeps
// (/v1/predict, /v1/advise, /v1/sweep: one model key each) and batches
// whose every tuple has one owner are relayed to that owner verbatim, so
// the answer is a single daemon's by construction. A batch spanning
// several owners is split into one sub-batch per owner, and the owners'
// result fragments are spliced back in the replicas' canonical order
// without being parsed or rendered again, so it too is byte-identical to
// the same request served by a single daemon. It decodes and validates
// with the replicas' own wire code (internal/api): a request it rejects
// gets exactly a replica's answer.
//
// Degradation is graceful by construction: point requests and sweeps
// fail over along the ring, and on a split batch a dead shard costs the
// tuples it owned, not the request — the merged answer carries the
// surviving results plus one error annotation per failed shard, and only
// a batch whose every owner failed becomes a 503.
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
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hybridperf/internal/api"
	"hybridperf/internal/cluster"
	"hybridperf/internal/telemetry"
)

// forwardedHeader mirrors the replicas' loop-prevention header. The
// gateway sets it on every sub-request: the gateway already routed by
// ownership (or failed over past the owner), so the receiving shard must
// serve locally instead of adding a second hop.
const forwardedHeader = "X-Hybridperf-Forwarded"

// maxAnswerPresize bounds the buffer a shard's declared Content-Length
// buys before its answer arrives.
const maxAnswerPresize = 1 << 20

// shardIdleConns sizes the gateway's pool of idle connections to each
// shard. A fan-out burst opens one connection per concurrent sub-request
// to a shard; net/http's default keeps 2 idle per host, so it would close
// the rest after every burst and dial them again on the next.
const shardIdleConns = 64

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
		client: &http.Client{Transport: newTransport()},
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

// newTransport is net/http's default transport with an idle pool of
// shardIdleConns per shard.
func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // no total cap: the per-shard cap bounds it
	t.MaxIdleConnsPerHost = shardIdleConns
	return t
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
	out, err := api.ReadAll(resp.Body, make([]byte, 0, min(max(resp.ContentLength, 511), maxAnswerPresize)+1))
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
// (see relay).
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
	if engineOK(w, req.Engine) {
		g.relay(w, r, "/v1/predict", req.System, req.Program, body)
	}
}

// handleAdvise proxies an advisory request to the owner of its model key
// (see relay), document or NDJSON stream.
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
	if engineOK(w, req.Engine) {
		g.relay(w, r, "/v1/advise", req.System, req.Program, body)
	}
}

// handleSweep proxies a sweep to the owner of its model key (see relay).
// A sweep is one model key, so its owner evaluates the whole
// configuration space from its own model and its own sweep response
// cache; the gateway only validates, so a bad sweep gets a shard's 400
// without a round trip.
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
	if !engineOK(w, req.Engine) {
		return
	}
	if _, err := api.ResolveSweep(&req); err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	g.relay(w, r, "/v1/sweep", req.System, req.Program, body)
}

// engineOK validates a request's "engine" field (see api.CheckEngine),
// answering 400 when it is unknown.
func engineOK(w http.ResponseWriter, engine string) bool {
	if err := api.CheckEngine(engine); err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return false
	}
	return true
}

// relay proxies a decoded request's body to the owner of its model key,
// falling through the ring-walk order when the owner is down — any
// replica serves any key bit-identically, so failover costs at most a
// campaign on the fallback shard. The answer is relayed verbatim (see
// relayAnswer), so it is byte-identical to the serving shard's.
func (g *Gateway) relay(w http.ResponseWriter, r *http.Request, route, system, program string, body []byte) {
	stream := api.WantStream(r)
	var errs []string
	for _, peer := range g.ring.Order(cluster.ModelKey(system, program)) {
		out, hdr, err := g.post(r, peer, route, body, stream)
		if err == nil {
			g.relayAnswer(w, route, out, hdr)
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
	// Every replica is unreachable: a retryable 503, like a batch whose
	// every owner failed.
	w.Header().Set("Retry-After", "1")
	api.Error(w, http.StatusServiceUnavailable, "no shard could serve the request: %s", strings.Join(errs, "; "))
}

// relayAnswer writes a shard's 2xx answer verbatim, document or NDJSON.
// Its cost comes from the shard's attribution headers, which sum exactly
// what the body carries (and, on /v1/advise, the simulations the body
// does not list); it is stamped on the response and aggregated into the
// gateway's per-route series.
func (g *Gateway) relayAnswer(w http.ResponseWriter, route string, out []byte, hdr http.Header) {
	if preds, err := strconv.Atoi(hdr.Get(telemetry.PredictionsHeader)); err == nil {
		simS, _ := strconv.ParseFloat(hdr.Get(telemetry.SimSecondsHeader), 64)
		energyJ, _ := strconv.ParseFloat(hdr.Get(telemetry.EnergyHeader), 64)
		g.applyAttribution(w, route, api.Cost{Predictions: preds, SimSeconds: simS, EnergyJ: energyJ})
	}
	ct := hdr.Get("Content-Type")
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	w.Write(out)
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
// /v1/batch: relay or split and splice.

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
	if !engineOK(w, req.Engine) {
		return
	}
	// Validate and canonicalise exactly as a shard does: a bad request
	// fails here with the 400 a shard would answer, without touching the
	// cluster, and the canonical tuple list is the merge order.
	groups, canon, err := api.CanonBatch(&req, api.Lookup, nil, nil)
	if err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Every (system, program) group lands on the replica that owns — and
	// has, or will characterise and keep — that model.
	var peers []string
	groupOwner := make([]int, len(groups))
	for j, gr := range groups {
		peer := g.ring.Owner(cluster.ModelKey(gr.System, gr.Program))
		k := slices.Index(peers, peer)
		if k < 0 {
			k = len(peers)
			peers = append(peers, peer)
		}
		groupOwner[j] = k
	}
	ownerOf := func(system, program string) int {
		for j := range groups {
			if groups[j].System == system && groups[j].Program == program {
				return groupOwner[j]
			}
		}
		panic("gateway: tuple outside its batch's groups")
	}

	answers := make([]shardAnswer, len(peers))
	if len(peers) == 1 {
		// One owner holds every tuple: its answer to the client's own body,
		// document or NDJSON, is the answer.
		out, hdr, err := g.post(r, peers[0], "/v1/batch", body, api.WantStream(r))
		if err == nil {
			g.relayAnswer(w, "/v1/batch", out, hdr)
			return
		}
		answers[0] = shardAnswer{peer: peers[0], tuples: len(req.Tuples), err: err}
	} else {
		// Each owner gets the tuples it owns as the client sent them, not
		// their canonical form: a frequency converted to Hz and back need
		// not be the client's float, and the owner must see the same tuple.
		subs := make([][]api.BatchTuple, len(peers))
		for _, t := range req.Tuples {
			k := ownerOf(t.System, t.Program)
			subs[k] = append(subs[k], t)
		}
		var wg sync.WaitGroup
		for k, peer := range peers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sub := api.AppendBatchRequest(make([]byte, 0, 64+96*len(subs[k])), req.Class, req.Engine, req.Workers, subs[k])
				out, _, err := g.post(r, peer, "/v1/batch", sub, false)
				answers[k] = shardAnswer{peer: peer, tuples: len(subs[k]), body: out, err: err}
			}()
		}
		wg.Wait()
	}

	for _, a := range answers {
		if relayClientError(w, a.err) {
			return
		}
	}
	owner := make([]int, len(canon))
	for i, t := range canon {
		owner[i] = ownerOf(t.System, t.Program)
	}
	doc, cost, shardErrs, ok := mergeBatch(api.Class(req.Class), canon, owner, answers)
	for _, a := range answers {
		if a.err != nil {
			g.log.LogAttrs(r.Context(), slog.LevelWarn, "batch sub-request failed",
				slog.String("peer", a.peer), slog.Any("err", a.err))
		}
	}
	if !ok {
		w.Header().Set("Retry-After", retryAfterHint(answers))
		api.Error(w, http.StatusServiceUnavailable, "all owning shards failed: %s", joinShardErrors(shardErrs))
		return
	}
	g.applyAttribution(w, "/v1/batch", cost)
	doc.Write(w, r)
}

// shardAnswer is one owner's part of a batch: how many tuples its
// sub-request carried, and its answer document or its failure.
type shardAnswer struct {
	peer   string
	tuples int
	body   []byte
	err    error
}

// mergeBatch splices the owners' answers to a batch into one answer,
// byte-identical to a single daemon's when every owner answered. canon is
// the request's canonical tuple list, and owner[i] indexes the answer of
// canon[i]'s owner, which lists its share of canon in the same order.
// Each result fragment is copied as the owner rendered it, and the cost
// is summed in body order from the fragments' time_s and energy_j, so it
// equals a single daemon's float for float. An owner that failed, or
// whose answer does not scan (api.ScanBatchResults) to exactly its share,
// gets its err set and a shard_errors entry instead of results. ok is
// false when no owner contributed a result.
func mergeBatch(class string, canon []api.Tuple, owner []int, answers []shardAnswer) (doc api.Doc, cost api.Cost, shardErrs []api.ShardError, ok bool) {
	share := make([]int, len(answers))
	for _, k := range owner {
		share[k]++
	}
	frags := make([][]api.BatchFragment, len(answers))
	for k := range answers {
		a := &answers[k]
		if a.err == nil {
			var err error
			if frags[k], err = api.ScanBatchResults(a.body, make([]api.BatchFragment, 0, share[k])); err != nil {
				a.err = fmt.Errorf("shard %s: unparseable answer: %w", a.peer, err)
			} else if len(frags[k]) != share[k] {
				a.err = fmt.Errorf("shard %s: %d results for %d tuples", a.peer, len(frags[k]), share[k])
			}
		}
		if a.err != nil {
			shardErrs = append(shardErrs, api.ShardError{Shard: a.peer, Error: a.err.Error(), Tuples: a.tuples})
		}
	}
	parts := make([][]byte, 0, len(canon))
	next := make([]int, len(answers))
	groups := 0
	var last *api.Tuple
	for i := range canon {
		k := owner[i]
		if answers[k].err != nil {
			continue
		}
		if t := &canon[i]; last == nil || last.System != t.System || last.Program != t.Program {
			groups++
			last = t
		}
		f := frags[k][next[k]]
		next[k]++
		parts = append(parts, answers[k].body[f.Start:f.End])
		cost.Predictions++
		cost.SimSeconds += f.TimeS
		cost.EnergyJ += f.EnergyJ
	}
	sort.Slice(shardErrs, func(i, j int) bool { return shardErrs[i].Shard < shardErrs[j].Shard })
	if len(parts) == 0 {
		return api.Doc{}, api.Cost{}, shardErrs, false
	}
	return api.SpliceBatch(class, groups, shardErrs, parts), cost, shardErrs, true
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

// retryAfterHint returns the first shard-provided Retry-After among the
// failed answers, falling back to "1" when no shard offered its own
// backoff.
func retryAfterHint(answers []shardAnswer) string {
	for _, a := range answers {
		var he *shardStatusError
		if errors.As(a.err, &he) && he.retryAfter != "" {
			return he.retryAfter
		}
	}
	return "1"
}
