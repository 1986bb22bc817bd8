package telemetry

// Per-request cost attribution: every model-serving response reports how
// much simulated work it carried — prediction count, simulated seconds,
// predicted energy — as response headers, access-log attributes, and
// per-route counter series. The numbers are computed once when
// a response body is built and stored alongside it (pre-formatted), so
// cache hits repeat the attribution of the response they replay without
// re-deriving or re-formatting anything.

import (
	"math/rand"
	"net/http"
	"strconv"

	"hybridperf/internal/api"
)

// Attribution response headers (exported: the gateway stamps the same
// headers on merged answers). Values are strconv.FormatFloat 'g' -1
// renderings of the exact float64 sums over the response body, so a
// client can cross-check headers against the body it received.
const (
	PredictionsHeader = "X-Hybridperf-Predictions"
	SimSecondsHeader  = "X-Hybridperf-Sim-Seconds"
	EnergyHeader      = "X-Hybridperf-Energy-Joules"
)

// attribution is one response's cost summary with its header renderings.
type attribution struct {
	preds      int
	simSeconds float64
	energyJ    float64

	predsStr, simStr, energyStr string

	// Header value slices over one shared backing array, capped so a later
	// Header.Add reallocates instead of scribbling into a neighbour.
	// Assigning them into the header map directly replays a cached
	// response's attribution with zero per-request header allocations.
	predsV, simV, energyV []string
}

func makeAttribution(c api.Cost) attribution {
	vals := []string{
		strconv.Itoa(c.Predictions),
		strconv.FormatFloat(c.SimSeconds, 'g', -1, 64),
		strconv.FormatFloat(c.EnergyJ, 'g', -1, 64),
	}
	return attribution{
		preds:      c.Predictions,
		simSeconds: c.SimSeconds,
		energyJ:    c.EnergyJ,
		predsStr:   vals[0],
		simStr:     vals[1],
		energyStr:  vals[2],
		predsV:     vals[0:1:1],
		simV:       vals[1:2:2],
		energyV:    vals[2:3:3],
	}
}

// attribSeries is the pre-resolved counter triple for one route.
type attribSeries struct {
	preds  *Counter
	simS   *FloatCounter
	energy *FloatCounter
}

// applyAttribution stamps one response's cost summary onto the response
// headers, the access-log line, and the aggregate series. A zero-value
// attribution (an error path that never built a body) is a no-op.
func (s *Server) applyAttribution(w http.ResponseWriter, r *http.Request, route string, a attribution) {
	if a.predsStr == "" {
		return
	}
	// Direct map assignment: the keys are already in canonical form, and
	// the value slices are pre-built (shared, append-safe via their caps).
	h := w.Header()
	h[PredictionsHeader] = a.predsV
	h[SimSecondsHeader] = a.simV
	h[EnergyHeader] = a.energyV
	if ann, _ := r.Context().Value(annotationsKey{}).(*annotations); ann != nil {
		ann.mu.Lock()
		ann.attr = a
		ann.mu.Unlock()
	}
	if set, ok := s.attrib[route]; ok {
		set.preds.Add(uint64(a.preds))
		set.simS.Add(a.simSeconds)
		set.energy.Add(a.energyJ)
	}
}

// sampleTrace decides whether a locally minted trace records spans.
func (s *Server) sampleTrace() bool {
	p := s.cfg.TraceSample
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return rand.Float64() < p
}

// traceSource names this hop in stitched traces: the shard name when
// clustered, the daemon otherwise.
func (s *Server) traceSource() string {
	if s.self != "" {
		return s.self
	}
	return "hybridperfd"
}

// handleTraceByID serves GET /debug/trace/{traceid}: the completed span
// payload one sampled request left behind on this replica. The gateway
// pulls this from every shard to stitch one cross-process trace.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("traceid")
	p, ok := s.traces.Get(id)
	if !ok {
		api.Error(w, http.StatusNotFound, "unknown trace id %q (sampled traces only, bounded retention)", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(api.MustJSON(p))
}
