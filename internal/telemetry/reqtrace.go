package telemetry

// Request-scoped span trees. A RequestTrace answers "what did this one
// request cost, and where" — the middleware opens it for sampled
// requests, handlers record decode/cache/characterize/evaluate/render
// children, a cold sampled characterisation attaches the engine's
// per-rank phase timeline, and the completed payload lands in the
// TraceStore, pullable by trace id via GET /debug/trace/{traceid}. The
// gateway fetches every shard's payload for one trace id and stitches
// them into a single Chrome-trace file (WriteChromeTrace). The same
// store answers "what is this server doing right now": a
// GET /debug/trace?duration window records every request that starts
// inside it and exports the trees that finished in it.

import (
	"context"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridperf/internal/trace"
)

// maxTraceSpans bounds one request's span list and maxTracePhases its
// attached engine timeline: a runaway handler cannot grow a sampled
// request's trace without bound (excess entries are dropped, the
// truncation is visible as a missing tail, not an error).
const (
	maxTraceSpans  = 512
	maxTracePhases = 16384
)

// TraceSpan is one recorded interval of a request, in wire form. Times
// are Unix microseconds, so payloads from different replicas stitch on
// one wall-clock axis (replicas share a host in tests and CI; across
// real machines the stitch is as good as their clock sync).
type TraceSpan struct {
	Name    string `json:"name"`
	Cat     string `json:"cat"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// TracePhase is one engine phase (virtual seconds) attached to a
// sampled request's characterisation run.
type TracePhase struct {
	Rank   int     `json:"rank"`
	Kind   string  `json:"kind"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// TracePayload is the pull-endpoint wire form of one hop's completed
// request trace.
type TracePayload struct {
	TraceID    string       `json:"trace_id"`
	Source     string       `json:"source"` // replica/gateway identity that recorded it
	Spans      []TraceSpan  `json:"spans"`
	PhaseLabel string       `json:"phase_label,omitempty"`
	Phases     []TracePhase `json:"phases,omitempty"`
}

// RequestTrace accumulates one sampled request's spans (and at most one
// engine phase timeline). All methods are safe on a nil receiver and
// no-ops there, so unsampled requests pay a nil check and nothing else.
type RequestTrace struct {
	tc TraceContext

	mu     sync.Mutex
	spans  []TraceSpan
	label  string
	phases []TracePhase
}

// NewRequestTrace opens a span tree for one sampled request.
func NewRequestTrace(tc TraceContext) *RequestTrace {
	return &RequestTrace{tc: tc}
}

// noopEnd is the shared span terminator handed out by nil receivers, so
// `defer rt.Span(...)()` costs no allocation when tracing is off.
var noopEnd = func() {}

// Span starts a child span and returns its terminator.
func (rt *RequestTrace) Span(cat, name string) func() {
	if rt == nil {
		return noopEnd
	}
	start := time.Now()
	return func() { rt.AddSpan(cat, name, start, time.Now()) }
}

// AddSpan records one completed interval.
func (rt *RequestTrace) AddSpan(cat, name string, start, end time.Time) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	if len(rt.spans) < maxTraceSpans {
		rt.spans = append(rt.spans, TraceSpan{
			Name: name, Cat: cat,
			StartUS: start.UnixMicro(), EndUS: end.UnixMicro(),
		})
	}
	rt.mu.Unlock()
}

// AttachPhases attaches an engine per-rank phase timeline (virtual
// seconds) under this request. The first attach wins — one request
// triggers at most one characterisation campaign, whose designated
// profiling run is the timeline worth keeping.
func (rt *RequestTrace) AttachPhases(label string, events []trace.Event) {
	if rt == nil || len(events) == 0 {
		return
	}
	if len(events) > maxTracePhases {
		events = events[:maxTracePhases]
	}
	phases := make([]TracePhase, len(events))
	for i, e := range events {
		phases[i] = TracePhase{Rank: e.Rank, Kind: e.Kind.String(), StartS: e.Start, EndS: e.End}
	}
	rt.mu.Lock()
	if rt.phases == nil {
		rt.label, rt.phases = label, phases
	}
	rt.mu.Unlock()
}

// Payload snapshots the completed trace in wire form.
func (rt *RequestTrace) Payload(source string) *TracePayload {
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return &TracePayload{
		TraceID:    rt.tc.TraceIDString(),
		Source:     source,
		Spans:      append([]TraceSpan(nil), rt.spans...),
		PhaseLabel: rt.label,
		Phases:     rt.phases,
	}
}

type reqTraceKey struct{}

// WithRequestTrace attaches a request's span tree to its context.
func WithRequestTrace(ctx context.Context, rt *RequestTrace) context.Context {
	return context.WithValue(ctx, reqTraceKey{}, rt)
}

// RequestTraceFrom returns the request's span tree, nil when the request
// records none (every RequestTrace method tolerates the nil).
func RequestTraceFrom(ctx context.Context) *RequestTrace {
	rt, _ := ctx.Value(reqTraceKey{}).(*RequestTrace)
	return rt
}

// maxWindowTraces bounds the request traces one recording window keeps;
// payloads filed past it are dropped.
const maxWindowTraces = 4096

// TraceStore retains the most recent completed trace payloads by trace
// id — the backing store of GET /debug/trace/{traceid}. Insertion-order
// FIFO eviction: sampling is for on-demand inspection, not archival, so
// a small bounded window is the point. It also collects the payloads of
// open recording windows (Window).
type TraceStore struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*TracePayload
	order    []string
	windows  []*[]*TracePayload // open recording windows

	// open counts the open windows, read without the lock on every
	// request (Recording).
	open atomic.Int32
}

// NewTraceStore builds a store holding up to capacity payloads (<= 0
// means 256).
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = 256
	}
	return &TraceStore{capacity: capacity, entries: map[string]*TracePayload{}}
}

// Put files one completed payload: into every open window and, when the
// request was sampled, under its trace id — evicting the oldest past
// capacity. A second payload under one trace id (a retried request
// reusing its trace) replaces the first.
func (ts *TraceStore) Put(p *TracePayload, sampled bool) {
	if ts == nil || p == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, w := range ts.windows {
		if len(*w) < maxWindowTraces {
			*w = append(*w, p)
		}
	}
	if !sampled || p.TraceID == "" {
		return
	}
	if _, ok := ts.entries[p.TraceID]; !ok {
		ts.order = append(ts.order, p.TraceID)
		for len(ts.order) > ts.capacity {
			delete(ts.entries, ts.order[0])
			ts.order = ts.order[1:]
		}
	}
	ts.entries[p.TraceID] = p
}

// Recording reports whether a window is open, in which case every
// request starting now records its span tree.
func (ts *TraceStore) Recording() bool {
	return ts != nil && ts.open.Load() > 0
}

// Window opens a recording window for d and returns the payloads filed
// while it was open — up to maxWindowTraces, in completion order — or
// false when ctx ends first.
func (ts *TraceStore) Window(ctx context.Context, d time.Duration) ([]*TracePayload, bool) {
	w := new([]*TracePayload)
	ts.mu.Lock()
	ts.windows = append(ts.windows, w)
	ts.open.Add(1)
	ts.mu.Unlock()
	timer := time.NewTimer(d)
	defer timer.Stop()
	ok := false
	select {
	case <-timer.C:
		ok = true
	case <-ctx.Done():
	}
	ts.mu.Lock()
	ts.windows = slices.DeleteFunc(ts.windows, func(o *[]*TracePayload) bool { return o == w })
	ts.open.Add(-1)
	ts.mu.Unlock()
	return *w, ok
}

// Get returns the stored payload for a trace id.
func (ts *TraceStore) Get(traceID string) (*TracePayload, bool) {
	if ts == nil {
		return nil, false
	}
	ts.mu.Lock()
	p, ok := ts.entries[traceID]
	ts.mu.Unlock()
	return p, ok
}

// WriteChromeTrace renders trace payloads as one Chrome-trace JSON file
// (trace.WriteChromeProcesses): the gateway's stitched
// /debug/trace/{traceid}, and a shard's /debug/trace?duration window.
func WriteChromeTrace(w io.Writer, payloads []*TracePayload) error {
	return trace.WriteChromeProcesses(w, stitchProcesses(payloads))
}

// stitchProcesses converts payloads into one lane group per source hop on
// a shared time axis (seconds since the earliest recorded span). An
// engine phase timeline is anchored at the start of the characterisation
// span that produced it, so the virtual-time lane renders inside the
// wall-clock span that paid for it; a hop shows the first timeline its
// payloads carry.
func stitchProcesses(payloads []*TracePayload) []trace.ProcessTrace {
	t0 := int64(0)
	first := true
	for _, p := range payloads {
		for _, s := range p.Spans {
			if first || s.StartUS < t0 {
				t0, first = s.StartUS, false
			}
		}
	}
	var procs []trace.ProcessTrace
	bySource := map[string]int{}
	for _, p := range payloads {
		i, ok := bySource[p.Source]
		if !ok {
			i = len(procs)
			bySource[p.Source] = i
			procs = append(procs, trace.ProcessTrace{Name: p.Source})
		}
		proc := &procs[i]
		var charStart float64
		for _, s := range p.Spans {
			start := float64(s.StartUS-t0) / 1e6
			end := float64(s.EndUS-t0) / 1e6
			proc.Spans = append(proc.Spans, trace.Span{Name: s.Name, Cat: s.Cat, Start: start, End: end})
			if s.Cat == "model" && strings.HasPrefix(s.Name, "characterize ") {
				charStart = start
			}
		}
		if len(proc.Phases) > 0 {
			continue
		}
		for _, ph := range p.Phases {
			kind, ok := trace.ParseKind(ph.Kind)
			if !ok {
				continue
			}
			proc.Phases = append(proc.Phases, trace.Event{Rank: ph.Rank, Kind: kind, Start: ph.StartS, End: ph.EndS})
		}
		proc.PhaseOffset = charStart
	}
	return procs
}
