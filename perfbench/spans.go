package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hybridperf/internal/telemetry"
)

// Span names: each is the public entry point of one layer, timed from the
// benchmark's own code around the call.
const (
	layerClient     = "client"
	layerGateway    = "gateway.Gateway.Handler"
	layerShard      = "telemetry.Server.Handler"
	layerEvaluate   = "pareto.EvaluateParallel"
	layerPredict    = "core.Model.Predict"
	layerAdvise     = "characterize.Advise"
	layerExecRun    = "exec.Run"
	layerWarm       = "Server.Warm"
	layerStorePut   = "modelstore.Store.Put"
	layerStoreLoad  = "modelstore.Store.Load"
	layerReplayRoot = "replay"
)

// span is one timed call. Times are nanoseconds since the tracer's epoch.
// Trace is the W3C trace id the call ran under ("" when it has none):
// the client mints it, the gateway forwards it to every shard it calls,
// and the handler wrappers read it back, so spans of one request share it
// even though they are recorded on different goroutines.
type span struct {
	ID     int
	Parent int // 0 = root
	Trace  string
	Name   string
	Route  string
	Start  int64
	End    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, when the run
// ends. Recording is switched on only for the traced phase, so the
// untraced phase pays one atomic load per wrapped call.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	lastID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID reserves a span id, for a span whose children are recorded
// before it ends.
func (t *tracer) newID() int { return int(t.lastID.Add(1)) }

// add records a finished span and returns its id, reserving one if the
// span has none yet.
func (t *tracer) add(s span) int {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return s.ID
}

// wrap times every call into h while recording is on, under the trace id
// of the request's traceparent header.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		tc, ok := telemetry.ParseTraceparent(r.Header.Get(telemetry.TraceparentHeader))
		if !ok {
			return
		}
		t.add(span{Trace: tc.TraceIDString(), Name: name, Route: r.URL.Path, Start: start, End: end})
	})
}

// get returns the recorded span with the given id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			return t.spans[i]
		}
	}
	return span{}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// link assigns parents to the handler spans recorded by wrap, which know
// only their trace id: within a trace, a shard span's parent is the
// gateway span whose interval contains it, else the client span; a
// gateway span's parent is the client span.
func link(spans []span) {
	byTrace := map[string][]int{}
	for i, s := range spans {
		if s.Trace != "" {
			byTrace[s.Trace] = append(byTrace[s.Trace], i)
		}
	}
	for _, idx := range byTrace {
		var client int
		var gws []int
		for _, i := range idx {
			switch spans[i].Name {
			case layerClient:
				client = spans[i].ID
			case layerGateway:
				gws = append(gws, i)
			}
		}
		for _, i := range idx {
			s := &spans[i]
			if s.Parent != 0 || s.Name == layerClient {
				continue
			}
			s.Parent = client
			if s.Name != layerShard {
				continue
			}
			for _, g := range gws {
				if spans[g].Start <= s.Start && s.End <= spans[g].End {
					s.Parent = spans[g].ID
					break
				}
			}
		}
	}
}

// children indexes spans by parent id.
func children(spans []span) map[int][]span {
	out := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(lo, hi int64, spans []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		total += v.b - v.a
		end = v.b
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, kids []span) int64 {
	return s.dur() - covered(s.Start, s.End, kids)
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome-trace JSON, one lane per span
// name, loadable in chrome://tracing or Perfetto.
func writeChrome(path string, spans []span) error {
	lanes := map[string]int{}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		tid, ok := lanes[s.Name]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.Name] = tid
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Route, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "trace": s.Trace},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
