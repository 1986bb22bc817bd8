package gateway

// The gateway's side of distributed tracing: per-request cost
// attribution on merged answers, and the stitch endpoint that assembles
// one Chrome-trace file from every hop's span payload.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"

	"hybridperf/internal/api"
	"hybridperf/internal/telemetry"
)

// applyAttribution stamps the merged answer's cost totals — prediction
// count, simulated seconds, predicted energy summed over what the body
// carries — onto the response headers (same names the shards use) and
// the gateway's per-route aggregate series.
func (g *Gateway) applyAttribution(w http.ResponseWriter, route string, c api.Cost) {
	h := w.Header()
	h.Set(telemetry.PredictionsHeader, strconv.Itoa(c.Predictions))
	h.Set(telemetry.SimSecondsHeader, strconv.FormatFloat(c.SimSeconds, 'g', -1, 64))
	h.Set(telemetry.EnergyHeader, strconv.FormatFloat(c.EnergyJ, 'g', -1, 64))
	g.mPreds.With(route).Add(uint64(c.Predictions))
	g.mSimS.With(route).Add(c.SimSeconds)
	g.mEnergy.With(route).Add(c.EnergyJ)
}

// handleTraceByID serves the stitched GET /debug/trace/{traceid}: the
// gateway's own span payload plus every shard's (pulled from their
// /debug/trace endpoints), rendered as one multi-process Chrome-trace
// JSON file — gateway fan-out spans, per-shard handler spans and any
// attached engine phase timeline, all under one trace id on one
// wall-clock axis.
func (g *Gateway) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("traceid")
	var payloads []*telemetry.TracePayload
	if own, ok := g.traces.Get(id); ok {
		payloads = append(payloads, own)
	}
	fetched := make([]*telemetry.TracePayload, len(g.peers))
	var wg sync.WaitGroup
	for i, p := range g.peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			fetched[i] = g.fetchTrace(r.Context(), peer, id)
		}(i, p)
	}
	wg.Wait()
	for _, p := range fetched {
		if p != nil {
			payloads = append(payloads, p)
		}
	}
	if len(payloads) == 0 {
		api.Error(w, http.StatusNotFound,
			"no hop recorded trace id %q (sampled traces only, bounded retention)", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	telemetry.WriteChromeTrace(w, payloads)
}

// fetchTrace pulls one shard's payload for a trace id; a 404 (the shard
// never saw the request, or its window evicted the entry) and a
// transport failure both simply contribute nothing to the stitch.
func (g *Gateway) fetchTrace(ctx context.Context, peer, id string) *telemetry.TracePayload {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/debug/trace/"+id, nil)
	if err != nil {
		return nil
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var p telemetry.TracePayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil
	}
	return &p
}
