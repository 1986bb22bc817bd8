// Package telemetry gives the model engine an externally observable
// serving surface: a Prometheus text-format exposition of service- and
// engine-level metrics, structured request logging, lightweight wall-clock
// spans exported as Chrome-trace JSON, and the HTTP daemon (hybridperfd)
// that ties them to the prediction API. Everything here rides the
// nil-guarded observation hooks the engine already exposes — the
// simulation hot path is untouched and results stay bit-for-bit identical
// with every collector attached.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hybridperf/internal/metrics"
)

// Counter is a monotonically increasing service-level counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// FloatCounter is a monotonically increasing counter carrying a float
// total (simulated seconds, predicted joules) — lock-free via
// compare-and-swap on the float's bit pattern, so it can sit on the
// serving path next to the integer counters.
type FloatCounter struct{ bits atomic.Uint64 }

// Add accumulates v (must be >= 0 to keep the series monotonic; the
// attribution sums it carries are non-negative by construction).
func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a service-level gauge (in-flight requests, cached models).
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bound float histogram (request latencies). Bounds
// are upper bucket edges in ascending order; an implicit +Inf bucket
// absorbs the tail. Unlike the engine's lock-free pow2 histograms this
// one sits on the request path, not the simulation hot path, so a mutex
// is fine and buys an exact sum.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []uint64 // per-bucket (non-cumulative), len(bounds)+1
	sum    float64
	total  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// snapshot copies counts/sum/total under the lock.
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	counts := append([]uint64(nil), h.counts...)
	return counts, h.sum, h.total
}

// Quantile interpolates the q-quantile from the bucket counts: linear
// inside the bucket holding the target rank, with the first bucket
// anchored at 0 and the +Inf bucket clamped to the largest finite bound.
// Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	counts, _, total := h.snapshot()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	cum := 0.0
	for i, n := range counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= target {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i == len(h.bounds) { // +Inf bucket: clamp to the last edge
				return h.bounds[len(h.bounds)-1]
			}
			hi := h.bounds[i]
			return lo + (target-cum)/float64(n)*(hi-lo)
		}
		cum = next
	}
	return h.bounds[len(h.bounds)-1]
}

// DefBuckets are the default request-latency bounds [s], a classical
// half-decade ladder from 0.5 ms to 10 s.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metricKind tags the exposition TYPE of a family.
type metricKind string

const (
	kindCounter      metricKind = "counter"
	kindFloatCounter metricKind = "floatcounter" // renders as TYPE counter
	kindGauge        metricKind = "gauge"
	kindHistogram    metricKind = "histogram"
)

// typeText maps a kind to its exposition TYPE token (float counters are
// an implementation detail, not a Prometheus type).
func (k metricKind) typeText() string {
	if k == kindFloatCounter {
		return string(kindCounter)
	}
	return string(k)
}

// family is one named metric with its labelled series.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64 // histogram families only

	mu     sync.Mutex
	series map[string]any // label-values key -> *Counter | *Gauge | *Histogram
}

// seriesKey joins label values into a map key (0x1f never appears in the
// short enum-like label values this registry carries).
func seriesKey(values []string) string { return strings.Join(values, "\x1f") }

// get returns the series for the given label values, creating it on first
// use.
func (f *family) get(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindFloatCounter:
		m = &FloatCounter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		m = &Histogram{bounds: f.bounds, counts: make([]uint64, len(f.bounds)+1)}
	}
	f.series[key] = m
	return m
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).(*Counter) }

// FloatCounterVec is a float counter family keyed by label values.
type FloatCounterVec struct{ f *family }

// With returns the float counter for the given label values.
func (v *FloatCounterVec) With(values ...string) *FloatCounter {
	return v.f.get(values).(*FloatCounter)
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).(*Gauge) }

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).(*Histogram) }

// Each calls fn for every live series, in sorted label order — used by
// scrape-time derived families (latency quantiles).
func (v *HistogramVec) Each(fn func(labelValues []string, h *Histogram)) {
	v.f.mu.Lock()
	keys := make([]string, 0, len(v.f.series))
	for k := range v.f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	snap := make([]any, len(keys))
	for i, k := range keys {
		snap[i] = v.f.series[k]
	}
	v.f.mu.Unlock()
	for i, k := range keys {
		fn(strings.Split(k, "\x1f"), snap[i].(*Histogram))
	}
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format (version 0.0.4). Families render in registration
// order, series within a family in sorted label order, so scrapes are
// deterministic and diffable.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	scrapers []func(io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func (r *Registry) register(name, help string, kind metricKind, bounds []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("telemetry: duplicate metric family " + name)
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, bounds: bounds, series: map[string]any{}}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// Counter registers a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, nil, labels)}
}

// FloatCounter registers a counter family carrying float totals
// (exposed as TYPE counter).
func (r *Registry) FloatCounter(name, help string, labels ...string) *FloatCounterVec {
	return &FloatCounterVec{r.register(name, help, kindFloatCounter, nil, labels)}
}

// Gauge registers a gauge family. With no labels, the single series is
// addressed as vec.With().
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, nil, labels)}
}

// Histogram registers a histogram family with the given upper bucket
// bounds (ascending; +Inf implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &HistogramVec{r.register(name, help, kindHistogram, bounds, labels)}
}

// OnScrape appends a collector invoked at the end of every WriteText —
// the hook for series derived at scrape time (engine snapshot, latency
// quantiles).
func (r *Registry) OnScrape(fn func(io.Writer)) {
	r.mu.Lock()
	r.scrapers = append(r.scrapers, fn)
	r.mu.Unlock()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// renderLabels formats {k="v",...}; extra appends a pre-formatted pair
// (the histogram "le"). Empty label sets render as "".
func renderLabels(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extra != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a sample value: integers without exponent, +Inf as
// the exposition token.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders every family and then the scrape-time collectors.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	scrapers := make([]func(io.Writer), len(r.scrapers))
	copy(scrapers, r.scrapers)
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		snap := make([]any, len(keys))
		for i, k := range keys {
			snap[i] = f.series[k]
		}
		f.mu.Unlock()
		if len(keys) == 0 {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind.typeText())
		for i, k := range keys {
			var values []string
			if k != "" || len(f.labels) > 0 {
				values = strings.Split(k, "\x1f")
			}
			switch m := snap[i].(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(f.labels, values, ""), m.Value())
			case *FloatCounter:
				fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(f.labels, values, ""), formatFloat(m.Value()))
			case *Gauge:
				fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(f.labels, values, ""), m.Value())
			case *Histogram:
				counts, sum, total := m.snapshot()
				cum := uint64(0)
				for bi, bound := range f.bounds {
					cum += counts[bi]
					le := fmt.Sprintf(`le="%s"`, formatFloat(bound))
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, renderLabels(f.labels, values, le), cum)
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, renderLabels(f.labels, values, `le="+Inf"`), total)
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, renderLabels(f.labels, values, ""), formatFloat(sum))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(f.labels, values, ""), total)
			}
		}
	}
	for _, fn := range scrapers {
		fn(w)
	}
}

// WriteEngineText renders an engine counter snapshot as Prometheus
// series under the hybridperf_engine_* namespace: the simulator-level
// counters accumulated across every run the daemon has executed, one
// unlabelled sample per family. The MPI message-size histogram converts
// the engine's power-of-two buckets to cumulative le edges; its _sum is
// estimated from bucket midpoints (the engine tracks counts per size
// class, not exact byte totals) and the HELP string says so.
func WriteEngineText(w io.Writer, s metrics.EngineSnapshot) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("hybridperf_engine_events_total", "Events dispatched by the DES kernel.", s.Events)
	counter("hybridperf_engine_self_dispatches_total", "Dispatches resuming the process that just yielded.", s.SelfDispatches)
	counter("hybridperf_engine_scheduler_dispatches_total", "Dispatches that switched to another process.", s.SchedulerDispatches)
	counter("hybridperf_engine_lookaheads_total", "AdvanceArm fast-path clock moves that bypassed the event queue.", s.Lookaheads)
	counter("hybridperf_engine_pool_hits_total", "Tasks served by a parked pooled runner.", s.PoolHits)
	counter("hybridperf_engine_pool_spawns_total", "Tasks that had to spawn a fresh runner.", s.PoolSpawns)
	counter("hybridperf_engine_omp_regions_total", "Simulated OpenMP parallel regions executed.", s.Regions)
	counter("hybridperf_engine_mpi_messages_total", "Simulated MPI messages posted.", s.Messages)
	fmt.Fprintf(w, "# HELP hybridperf_engine_heap_high_water Deepest future-event heap observed.\n"+
		"# TYPE hybridperf_engine_heap_high_water gauge\nhybridperf_engine_heap_high_water %d\n", s.HeapHighWater)

	const name = "hybridperf_engine_mpi_msg_bytes"
	fmt.Fprintf(w, "# HELP %s Simulated MPI message sizes in bytes (sum estimated from bucket midpoints).\n# TYPE %s histogram\n", name, name)
	var cum uint64
	sum := 0.0
	for i := 0; i < metrics.HistBuckets; i++ {
		n := s.MsgBytes[i]
		cum += n
		lo, hi := uint64(0), uint64(2)
		if i > 0 {
			lo = uint64(1) << uint(i)
			hi = lo * 2
		}
		sum += float64(n) * (float64(lo) + float64(hi)) / 2
		if i < metrics.HistBuckets-1 {
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, hi, cum)
		}
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(sum))
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}
