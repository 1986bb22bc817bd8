// Package api is the wire format of the hybridperf serving tree, shared
// by the shards (internal/telemetry) and the gateway (internal/gateway):
// the request and response bodies of every /v1 route, their strict
// decoder, the validation both sides apply before any work, the
// canonical tuple order, the renderers of the spliced answer documents
// and their NDJSON form, the error envelope and the body limits. A
// request the gateway rejects is rejected with exactly the status and
// bytes a shard would answer, because both run this code.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"hybridperf/internal/core"
)

// Body and work limits of the POST routes.
const (
	// MaxBodyBytes caps the /v1/predict, /v1/sweep and /v1/advise bodies.
	MaxBodyBytes = 1 << 20
	// MaxBatchBodyBytes caps the /v1/batch body — larger than the
	// default because a full dense grid is tens of thousands of tuples.
	MaxBatchBodyBytes = 8 << 20
	// MaxBatchTuples bounds one /v1/batch request: the body cap limits
	// the wire form, this limits the work.
	MaxBatchTuples = 65536
	// MaxSweepNodes bounds /v1/sweep requests: the model happily
	// extrapolates to thousands of nodes, but an unbounded max_nodes
	// would let one request allocate an arbitrarily large configuration
	// space.
	MaxSweepNodes = 1024
)

// Config is the wire form of a machine.Config.
type Config struct {
	Nodes   int     `json:"nodes"`
	Cores   int     `json:"cores"`
	FreqGHz float64 `json:"freq_ghz"`
}

// Prediction is the wire form of a core.Prediction.
type Prediction struct {
	Config  Config  `json:"config"`
	TimeS   float64 `json:"time_s"`
	EnergyJ float64 `json:"energy_j"`
	PowerW  float64 `json:"power_w"`
	UCR     float64 `json:"ucr"`
}

// ToPrediction renders a model prediction in wire form.
func ToPrediction(p core.Prediction) Prediction {
	power := 0.0
	if p.T > 0 {
		power = p.E / p.T
	}
	return Prediction{
		Config:  Config{Nodes: p.Cfg.Nodes, Cores: p.Cfg.Cores, FreqGHz: p.Cfg.GHz()},
		TimeS:   p.T,
		EnergyJ: p.E,
		PowerW:  power,
		UCR:     p.UCR,
	}
}

// PredictRequest is the /v1/predict body.
type PredictRequest struct {
	System  string  `json:"system"`
	Program string  `json:"program"`
	Class   string  `json:"class"`
	Nodes   int     `json:"nodes"`
	Cores   int     `json:"cores"`
	FreqGHz float64 `json:"freq_ghz"`
	Engine  string  `json:"engine"` // no-op alias, see CheckEngine
}

// PredictResponse is the /v1/predict answer.
type PredictResponse struct {
	System  string `json:"system"`
	Program string `json:"program"`
	Class   string `json:"class"`
	Prediction
}

// BatchTuple is one (system, program, n, c, f) coordinate of a /v1/batch
// request. freq_ghz 0 resolves to the system's f_max, exactly as
// /v1/predict defaults it.
type BatchTuple struct {
	System  string  `json:"system"`
	Program string  `json:"program"`
	Nodes   int     `json:"nodes"`
	Cores   int     `json:"cores"`
	FreqGHz float64 `json:"freq_ghz"`
}

// BatchRequest is the /v1/batch body: many tuples, one class, vectorised
// through the sweep engine. Workers tunes how the answer is computed,
// never what it is.
type BatchRequest struct {
	Class   string       `json:"class"`
	Engine  string       `json:"engine"`  // no-op alias, see CheckEngine
	Workers int          `json:"workers"` // 0 = server default
	Tuples  []BatchTuple `json:"tuples"`
}

// BatchResponse is the /v1/batch answer, as RenderBatch renders it.
type BatchResponse struct {
	Class       string        `json:"class"`
	Count       int           `json:"count"`
	Groups      int           `json:"groups"`
	ShardErrors []ShardError  `json:"shard_errors,omitempty"`
	Results     []BatchResult `json:"results"`
}

// BatchResult is one element of a /v1/batch answer's results array, as
// AppendBatchResult renders it.
type BatchResult struct {
	System  string `json:"system"`
	Program string `json:"program"`
	Prediction
}

// SweepRequest is the /v1/sweep body.
type SweepRequest struct {
	System    string  `json:"system"`
	Program   string  `json:"program"`
	Class     string  `json:"class"`
	MaxNodes  int     `json:"max_nodes"` // 0 = testbed size
	Pow2      bool    `json:"pow2"`
	Workers   int     `json:"workers"` // 0 = server default
	DeadlineS float64 `json:"deadline_s"`
	BudgetJ   float64 `json:"budget_j"`
	Engine    string  `json:"engine"` // no-op alias, see CheckEngine
}

// SweepSummary is the header of a sweep answer: everything except the
// frontier list itself. It doubles as the NDJSON summary line, so the
// streamed and document forms carry identical fields by construction.
type SweepSummary struct {
	System   string      `json:"system"`
	Program  string      `json:"program"`
	Class    string      `json:"class"`
	Configs  int         `json:"configs"`
	Points   int         `json:"frontier_points"`
	Deadline *Prediction `json:"min_energy_within_deadline,omitempty"`
	Budget   *Prediction `json:"min_time_within_budget,omitempty"`
}

// ShardError annotates one failed gateway sub-request on a partial
// /v1/batch answer; a complete answer has none, so it is byte-identical
// to a shard's.
type ShardError struct {
	Shard  string `json:"shard"`
	Error  string `json:"error"`
	Tuples int    `json:"tuples,omitempty"`
}

// AdviseRequest is the /v1/advise body.
type AdviseRequest struct {
	System  string `json:"system"`
	Program string `json:"program"`
	Class   string `json:"class"`
	Nodes   int    `json:"nodes"` // 0 = testbed size
	Cores   int    `json:"cores"` // 0 = cores per node
	// Policies selects a subset of the governor suite; empty evaluates
	// every policy. Order and duplicates are erased: the response is
	// always in suite order.
	Policies []string `json:"policies"`
	// MaxSlowdownPct is the makespan tolerance in percent (the
	// phase-predictive governor's budget and the recommendation
	// cut-off); 0 takes the server default.
	MaxSlowdownPct float64 `json:"max_slowdown_pct"`
	Engine         string  `json:"engine"` // no-op alias, see CheckEngine
}

// AdviseSummary is the header of an advise answer: everything except the
// per-policy list. It doubles as the NDJSON summary line.
type AdviseSummary struct {
	System  string `json:"system"`
	Program string `json:"program"`
	Class   string `json:"class"`
	Nodes   int    `json:"nodes"`
	Cores   int    `json:"cores"`
	// Static is the model's prediction at the static Pareto point the
	// governed runs start from (min-EDP over the DVFS levels).
	Static Prediction `json:"static"`
	// Baseline measures the ungoverned DES run at the static point —
	// the denominator of every per-policy delta.
	BaselineTimeS   float64 `json:"baseline_time_s"`
	BaselineEnergyJ float64 `json:"baseline_energy_j"`
	MaxSlowdownPct  float64 `json:"max_slowdown_pct"`
	Recommended     string  `json:"recommended"`
}

// AdviseTransition is one frequency-schedule step.
type AdviseTransition struct {
	Iter    int     `json:"iter"`
	FreqGHz float64 `json:"freq_ghz"`
}

// AdvisePolicy is one policy's governed outcome on the wire.
type AdvisePolicy struct {
	Policy           string             `json:"policy"`
	TimeS            float64            `json:"time_s"`
	EnergyJ          float64            `json:"energy_j"`
	MakespanDeltaPct float64            `json:"makespan_delta_pct"`
	EnergyDeltaPct   float64            `json:"energy_delta_pct"`
	Schedule         []AdviseTransition `json:"schedule"`
}

// System is one entry of the /v1/systems capability document.
type System struct {
	Name         string    `json:"name"`
	ISA          string    `json:"isa"`
	MaxNodes     int       `json:"max_nodes"`
	CoresPerNode int       `json:"cores_per_node"`
	FreqsGHz     []float64 `json:"frequencies_ghz"`
	Topology     string    `json:"topology"`
}

// Systems is the /v1/systems capability document.
type Systems struct {
	Systems       []System `json:"systems"`
	Programs      []string `json:"programs"`
	Classes       []string `json:"classes"`
	Engines       []string `json:"engines"`
	DefaultEngine string   `json:"default_engine"`
}

// Ready is the gateway's /readyz document: ready while any shard is.
type Ready struct {
	Ready bool         `json:"ready"`
	Up    int          `json:"up"`
	Peers []PeerStatus `json:"peers"`
}

// PeerStatus is one shard's health in the gateway's /readyz document.
type PeerStatus struct {
	Peer string `json:"peer"`
	Up   bool   `json:"up"`
}

// ErrorBody is the structured JSON error envelope every 4xx/5xx answer
// carries.
type ErrorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// Error writes an error answer: status, and its envelope as the body.
func Error(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorBody{Error: fmt.Sprintf(format, args...), Status: status})
}

// BadBody answers a request body the decoder rejected.
func BadBody(w http.ResponseWriter, err error) {
	Error(w, http.StatusBadRequest, "invalid JSON body: %v", err)
}

// ReadBody reads the whole request body under a size cap; handlers
// decode the bytes and keep them for forwarding. An oversized body is
// 413, not a misleading "invalid JSON" 400. A declared Content-Length
// within the cap sizes the buffer up front, but never past
// maxBodyPresize: a client that declares megabytes and sends nothing
// holds no more than that, and a larger body grows the buffer only as
// its bytes arrive. The body is read to its end either way, so a body
// shorter or longer than declared, or a chunked one, reads exactly as it
// would through io.ReadAll.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	size := 512 // io.ReadAll's initial buffer
	if cl := r.ContentLength; cl >= 0 && cl <= limit {
		size = int(min(cl, maxBodyPresize)) + 1 // room to observe EOF without growing
	}
	body, err := ReadAll(http.MaxBytesReader(w, r.Body, limit), make([]byte, 0, size))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			Error(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return nil, false
		}
		Error(w, http.StatusBadRequest, "reading request body: %v", err)
		return nil, false
	}
	return body, true
}

// maxBodyPresize bounds the buffer ReadBody allocates on the strength of
// a declared Content-Length alone. It covers a several-hundred-tuple
// batch body in one allocation.
const maxBodyPresize = 64 << 10

// ReadAll is io.ReadAll appending into b: a b with room for the whole
// body and one byte more reads it without growing.
func ReadAll(rd io.Reader, b []byte) ([]byte, error) {
	for {
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)] // let append pick the growth
		}
	}
}

// WantStream reports whether the client opted into NDJSON streaming, via
// `Accept: application/x-ndjson` or a `stream=1` query parameter.
func WantStream(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true":
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}
