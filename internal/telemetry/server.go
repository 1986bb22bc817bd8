package telemetry

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridperf/internal/api"
	"hybridperf/internal/characterize"
	"hybridperf/internal/cluster"
	"hybridperf/internal/core"
	"hybridperf/internal/dvfs"
	"hybridperf/internal/machine"
	"hybridperf/internal/metrics"
	"hybridperf/internal/modelstore"
	"hybridperf/internal/pareto"
	"hybridperf/internal/workload"
)

// Config tunes the prediction service.
type Config struct {
	// Workers is the characterisation/sweep parallelism (<= 0 means
	// GOMAXPROCS).
	Workers int
	// Seed seeds every characterisation campaign, so two daemons with the
	// same seed serve bit-identical predictions. Zero is a valid seed.
	Seed int64
	// Logger receives the structured request log (nil = slog.Default()).
	Logger *slog.Logger
	// MaxCampaigns bounds the heavy work admitted concurrently —
	// characterisation campaigns and sweep evaluations (<= 0 means 4).
	// Excess requests are shed with 429 + Retry-After instead of
	// queueing, so saturation surfaces at the client immediately rather
	// than as unbounded latency.
	MaxCampaigns int
	// RequestTimeout, when > 0, bounds every instrumented request with
	// context.WithTimeout; expiry cancels in-flight characterisations
	// and sweeps mid-simulation and the request fails 503 with
	// Retry-After. /debug/trace is exempt (it legitimately blocks for
	// its recording window). Zero disables the per-request deadline.
	RequestTimeout time.Duration
	// AdviseMaxSlowdown is the default makespan tolerance for /v1/advise
	// requests that omit max_slowdown_pct, as a fraction (<= 0 means
	// 0.05). Must be < 1; a larger value panics in NewServer.
	AdviseMaxSlowdown float64
	// ResponseCache, when > 0, enables the /v1/sweep + /v1/batch response
	// cache with that many entries (LRU) and collapses identical
	// in-flight requests onto one computation. Zero disables the cache
	// entirely, including the singleflight collapse.
	ResponseCache int
	// ResponseCacheTTL bounds how long a cached response is served before
	// it is recomputed; zero means entries never expire. Responses are
	// deterministic for a fixed seed, so the TTL is about bounding memory
	// held by stale keys, not staleness of the data.
	ResponseCacheTTL time.Duration
	// TraceSample is the fraction of locally originated requests that
	// record a request-scoped span tree (0 = never, the default; 1 =
	// always). Requests arriving with a traceparent header inherit the
	// sender's sampling decision instead — the edge that minted the trace
	// controls the whole chain. Sampling is purely observational: sampled
	// and unsampled responses are byte-identical.
	TraceSample float64
	// ModelStore, when non-nil, persists characterisation summaries: every
	// successful campaign writes a snapshot, and NewServer warm-loads every
	// snapshot matching this server's seed and model version — so a
	// restarted (or newly added) replica answers its first predict without
	// re-running campaigns, bit-identical to the cold path. Snapshot
	// problems are never fatal: corrupt or stale entries are skipped and
	// counted on hybridperf_model_store_load_errors_total.
	ModelStore *modelstore.Store
}

// Server is the hybridperfd prediction service: models characterised
// lazily per (system, program) pair and cached for the process lifetime,
// wrapped in the telemetry stack (exposition, request logging, spans,
// pprof). Create with NewServer, mount with Handler.
type Server struct {
	cfg         Config
	log         *slog.Logger
	reg         *Registry
	advSlowdown float64         // resolved default /v1/advise makespan tolerance
	eng         *metrics.Engine // shared counters of every simulation the server runs
	start       time.Time
	ready       atomic.Bool

	// traces retains completed sampled request traces for the
	// GET /debug/trace/{traceid} pull endpoint, and records every request
	// during a GET /debug/trace?duration window.
	traces *TraceStore

	// attrib pre-resolves the per-route cost-attribution series so the
	// serving path records them without a label lookup.
	attrib map[string]attribSeries

	mu     sync.Mutex
	models map[modelKey]*modelEntry

	// sem is the admission-control semaphore: one slot per concurrently
	// admitted characterisation campaign or sweep/batch evaluation.
	sem chan struct{}

	// respCache caches rendered /v1/sweep and /v1/batch responses by
	// canonicalised request key; nil when Config.ResponseCache <= 0.
	respCache *responseCache

	// batchMemo short-circuits exact-byte repeats of /v1/batch bodies to
	// their canonical cache key, skipping decode + validation on the hit
	// path; nil whenever respCache is.
	batchMemo *bodyMemo

	// systemsOnce renders the static /v1/systems document (and its ETag)
	// once per process.
	systemsOnce sync.Once
	systemsBody []byte
	systemsETag string

	// Cluster state (nil/empty when single-instance): the consistent-hash
	// ring over the static peer list, this replica's own peer name, and
	// the client used to forward requests for keys another replica owns.
	// Set once by SetCluster before serving; read-only afterwards.
	ring      *cluster.Ring
	self      string
	fwdClient *http.Client

	mReq       *CounterVec
	mDur       *HistogramVec
	mInflight  *GaugeVec
	mPanics    *CounterVec
	mModels    *GaugeVec
	mChar      *CounterVec
	mRejected  *CounterVec
	mCancelled *CounterVec

	// Advisory-plane series, by governor policy.
	mAdviseEvals *CounterVec
	mAdviseRec   *CounterVec
	mAdviseSaved *FloatCounterVec

	// Model store series (nil without a store).
	mStoreLoads    *Counter
	mStoreLoadErrs *Counter
	mStoreWrites   *Counter

	// Cluster series (nil until SetCluster).
	mForwards    *CounterVec
	mForwardErrs *CounterVec

	// charTestHook, when non-nil (tests only), runs inside the
	// characterisation critical section before the campaign, with the
	// request context; a non-nil error (or a panic) fails the campaign.
	charTestHook func(ctx context.Context, key modelKey) error
}

type modelKey struct{ system, program string }

// modelEntry caches one characterised model; once guarantees a single
// characterisation per key even under concurrent first requests. ready
// flips only after a completed, successful campaign — entries that never
// reach ready are evicted by Server.model so the next request retries
// instead of serving a poisoned cache slot forever.
type modelEntry struct {
	once  sync.Once
	ready atomic.Bool
	prof  *machine.Profile
	spec  *workload.Spec
	model *core.Model
	err   error
}

// NewServer builds the service. It starts not-ready: call SetReady(true)
// after any warm-up (or immediately) so /readyz flips to 200.
func NewServer(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxCampaigns <= 0 {
		cfg.MaxCampaigns = 4
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	advSlowdown := cfg.AdviseMaxSlowdown
	if advSlowdown <= 0 {
		advSlowdown = 0.05
	}
	if advSlowdown >= 1 {
		panic(fmt.Sprintf("telemetry: Config.AdviseMaxSlowdown %g must be in (0,1)", cfg.AdviseMaxSlowdown))
	}
	s := &Server{
		cfg:    cfg,
		log:    log,
		reg:    NewRegistry(),
		eng:    metrics.NewEngine(),
		start:  time.Now(),
		models: map[modelKey]*modelEntry{},
		sem:    make(chan struct{}, cfg.MaxCampaigns),
	}
	s.advSlowdown = advSlowdown
	s.mReq = s.reg.Counter("hybridperf_http_requests_total",
		"HTTP requests served, by route, method and status code.", "route", "method", "code")
	s.mDur = s.reg.Histogram("hybridperf_http_request_duration_seconds",
		"HTTP request latency in seconds, by route.", DefBuckets, "route")
	s.mInflight = s.reg.Gauge("hybridperf_http_requests_in_flight",
		"HTTP requests currently being served.")
	s.mPanics = s.reg.Counter("hybridperf_http_panics_total",
		"Handler panics recovered, by route.", "route")
	s.mModels = s.reg.Gauge("hybridperf_models_cached",
		"Characterised models held in the cache.")
	s.mChar = s.reg.Counter("hybridperf_model_characterizations_total",
		"Characterisation campaigns run, by system and program.", "system", "program")
	s.mRejected = s.reg.Counter("hybridperf_http_requests_rejected_total",
		"Requests shed by admission control, by route and reason.", "route", "reason")
	s.mCancelled = s.reg.Counter("hybridperf_http_requests_cancelled_total",
		"Requests whose context ended before completion, by route and reason (disconnect or timeout).", "route", "reason")
	s.traces = NewTraceStore(0)
	// Cost attribution: every model-serving response reports how much
	// simulated work it carried; these aggregate the same numbers the
	// response headers expose. Series are pre-resolved here — the routes
	// are static — so the hot path records them map-lookup cheap and
	// allocation free.
	mPreds := s.reg.Counter("hybridperf_predictions_served_total",
		"Predictions returned to clients, by route.", "route")
	mSimS := s.reg.FloatCounter("hybridperf_simulated_seconds_total",
		"Predicted application runtime (virtual seconds) summed over all served predictions, by route.", "route")
	mEnergy := s.reg.FloatCounter("hybridperf_predicted_energy_joules_total",
		"Predicted energy (joules) summed over all served predictions, by route.", "route")
	s.attrib = make(map[string]attribSeries, 4)
	for _, route := range []string{"/v1/predict", "/v1/batch", "/v1/sweep", "/v1/advise"} {
		s.attrib[route] = attribSeries{
			preds:  mPreds.With(route),
			simS:   mSimS.With(route),
			energy: mEnergy.With(route),
		}
	}
	// Advisory-plane accounting: per-policy governed evaluations, which
	// policy the advisor recommended, and the energy each policy would
	// have saved against the static baseline. Series exist from boot so
	// scrapes (and the serve-smoke diff) see explicit zeros.
	s.mAdviseEvals = s.reg.Counter("hybridperf_advise_evaluations_total",
		"Governed advisory simulations run, by governor policy.", "policy")
	s.mAdviseRec = s.reg.Counter("hybridperf_advise_recommended_total",
		"Advisory responses computed, by the policy they recommended.", "policy")
	s.mAdviseSaved = s.reg.FloatCounter("hybridperf_advise_energy_saved_joules_total",
		"Predicted energy saved vs the ungoverned static baseline, summed over advisory evaluations, by policy.", "policy")
	for _, p := range dvfs.Policies() {
		s.mAdviseEvals.With(p).Add(0)
		s.mAdviseRec.With(p).Add(0)
		s.mAdviseSaved.With(p).Add(0)
	}
	// In-flight starts existing so the gauge appears on the first scrape.
	s.mInflight.With().Set(0)
	s.mModels.With().Set(0)
	if cfg.ResponseCache > 0 {
		ctr := cacheCounters{
			hits: s.reg.Counter("hybridperf_response_cache_hits_total",
				"Requests served from the response cache.").With(),
			misses: s.reg.Counter("hybridperf_response_cache_misses_total",
				"Requests that computed (and stored) their response.").With(),
			evictions: s.reg.Counter("hybridperf_response_cache_evictions_total",
				"Response-cache entries dropped by LRU capacity pressure.").With(),
			expired: s.reg.Counter("hybridperf_response_cache_expired_total",
				"Response-cache entries dropped because they aged past the TTL.").With(),
			collapsed: s.reg.Counter("hybridperf_response_cache_collapsed_total",
				"Requests collapsed onto an identical in-flight computation (singleflight).").With(),
			entries: s.reg.Gauge("hybridperf_response_cache_entries",
				"Responses currently held in the cache.").With(),
		}
		ctr.entries.Set(0)
		s.respCache = newResponseCache(cfg.ResponseCache, cfg.ResponseCacheTTL, ctr)
		// Several syntactic variants (tuple order, defaulted fields) can
		// name one semantic entry, so the memo is sized a few times larger
		// than the cache it fronts.
		s.batchMemo = newBodyMemo(4 * cfg.ResponseCache)
	}
	if cfg.ModelStore != nil {
		s.mStoreLoads = s.reg.Counter("hybridperf_model_store_loads_total",
			"Characterisation snapshots loaded from the model store and adopted into the cache.").With()
		s.mStoreLoadErrs = s.reg.Counter("hybridperf_model_store_load_errors_total",
			"Model-store snapshots skipped at load: corrupt, truncated, stale-versioned or unresolvable.").With()
		s.mStoreWrites = s.reg.Counter("hybridperf_model_store_writes_total",
			"Characterisation snapshots written to the model store.").With()
		s.loadModelStore()
	}
	// Scrape-time families: latency quantiles interpolated from the route
	// histograms, then the engine-level counters.
	s.reg.OnScrape(func(w io.Writer) {
		const name = "hybridperf_http_request_duration_quantile_seconds"
		first := true
		s.mDur.Each(func(values []string, h *Histogram) {
			if first {
				fmt.Fprintf(w, "# HELP %s Request latency quantiles interpolated from the histogram, by route.\n# TYPE %s gauge\n", name, name)
				first = false
			}
			for _, q := range []float64{0.5, 0.95, 0.99} {
				fmt.Fprintf(w, "%s{route=\"%s\",quantile=\"%s\"} %s\n",
					name, escapeLabel(values[0]), formatFloat(q), formatFloat(h.Quantile(q)))
			}
		})
		fmt.Fprintf(w, "# HELP hybridperf_uptime_seconds Seconds since the daemon started.\n"+
			"# TYPE hybridperf_uptime_seconds gauge\nhybridperf_uptime_seconds %s\n",
			formatFloat(time.Since(s.start).Seconds()))
		WriteEngineText(w, s.eng.Snapshot())
	})
	return s
}

// Warm characterises one (system, program) pair ahead of traffic, so a
// deployment can flip /readyz only after its hot models are cached. The
// warm-up runs the exact path traffic takes: its simulations feed the
// server's engine counters, and the campaign holds an admission
// slot — waiting for one rather than shedding, since warm-up has no
// client to 429 — so a daemon warming while already serving cannot
// oversubscribe the campaign budget it advertises.
func (s *Server) Warm(system, program string) error {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	_, err := s.model(context.Background(), modelKey{system: system, program: program}, true)
	return err
}

// SetReady flips the /readyz probe.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Registry exposes the server's metric registry (tests, extra collectors).
func (s *Server) Registry() *Registry { return s.reg }

// Engine exposes the shared engine counter set fed by every simulation
// the server runs.
func (s *Server) Engine() *metrics.Engine { return s.eng }

// Handler returns the full route table wrapped in the telemetry
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.instrument("/v1/predict", s.handlePredict))
	mux.HandleFunc("POST /v1/batch", s.instrument("/v1/batch", s.handleBatch))
	mux.HandleFunc("POST /v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	mux.HandleFunc("POST /v1/advise", s.instrument("/v1/advise", s.handleAdvise))
	mux.HandleFunc("GET /v1/systems", s.instrument("/v1/systems", s.handleSystems))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/trace", s.instrument("/debug/trace", s.handleDebugTrace))
	mux.HandleFunc("GET /debug/trace/{traceid}", s.instrument("/debug/trace/{traceid}", s.handleTraceByID))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		if s.ring != nil {
			fmt.Fprintf(w, "ready shard=%s peers=%d\n", s.self, len(s.ring.Peers()))
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// errCharAborted marks a cache entry whose characterisation panicked
// inside its sync.Once: the Once is burnt (done, but no model and no
// error recorded), so waiters report a retryable failure instead of
// dereferencing a nil model.
var errCharAborted = errors.New("characterisation aborted before completing; retry")

// errSaturated reports a characterisation campaign shed because every
// admission slot was taken. Handlers map it to 429 + Retry-After.
var errSaturated = errors.New("admission slots saturated")

// model returns the cached model for (system, program), characterising it
// on first use with the server's collectors attached: every simulation
// feeds the shared engine counters, and the campaign logs one line with
// its engine-event delta. ctx cancels an in-flight characterisation
// mid-simulation (client disconnect, request timeout). Concurrent cold
// requests for one key collapse into a single campaign.
//
// Admission: unless the caller is already admitted (Warm runs before
// traffic; sweep handlers hold a slot for the whole request), the
// campaign leader claims an admission slot inside the once — so the
// semaphore counts actual campaigns, and concurrent cold requests for
// one key still collapse to a single characterisation instead of
// shedding each other. A saturated semaphore fails the campaign with
// errSaturated, the entry is evicted, and the next request retries.
//
// Cache hygiene: coordinates are validated before the cache is touched,
// so unknown system/program names never occupy map entries (a stream of
// garbage keys cannot grow s.models without bound), and an entry whose
// campaign failed, was cancelled or panicked is evicted before returning,
// so the next request for that key re-characterises instead of being
// poisoned for the process lifetime. Concurrent waiters on a failing
// campaign all observe its error; the first request after eviction
// retries fresh.
func (s *Server) model(ctx context.Context, key modelKey, admitted bool) (*modelEntry, error) {
	if e := s.readyModel(key); e != nil {
		return e, nil // the warm path: no catalogue lookups
	}
	prof, err := machine.ByName(key.system)
	if err != nil {
		return nil, err
	}
	spec, err := workload.ByName(key.program)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	e, ok := s.models[key]
	if !ok {
		e = &modelEntry{}
		s.models[key] = e
	}
	s.mu.Unlock()

	// Runs on every exit — including a panic unwinding out of once.Do —
	// and evicts the entry unless the campaign completed successfully.
	// The pointer comparison keeps the eviction idempotent: a newer
	// retry entry under the same key is never clobbered.
	defer func() {
		if !e.ready.Load() {
			s.mu.Lock()
			if s.models[key] == e {
				delete(s.models, key)
			}
			s.mu.Unlock()
		}
	}()

	e.once.Do(func() {
		if !admitted {
			release, ok := s.acquire()
			if !ok {
				e.err = fmt.Errorf("characterize %s/%s: %w", key.system, key.program, errSaturated)
				return
			}
			defer release()
		}
		if s.charTestHook != nil {
			if err := s.charTestHook(ctx, key); err != nil {
				e.err = fmt.Errorf("characterize %s/%s: %w", key.system, key.program, err)
				return
			}
		}
		eng := s.eng
		rt := RequestTraceFrom(ctx)
		// Only a sampled request asks the campaign to deliver its per-rank
		// phase timeline: the hook forces the engine to record events, so
		// leaving it nil keeps unsampled campaigns on the exact cold path.
		opts := characterize.Options{
			Seed:          s.cfg.Seed,
			Workers:       s.cfg.Workers,
			Ctx:           ctx,
			SharedMetrics: eng,
		}
		if rt != nil {
			opts.PhaseTrace = rt.AttachPhases
		}
		start := time.Now()
		pre := eng.Snapshot()
		sum, err := characterize.Run(prof, spec, opts)
		if err != nil {
			e.err = fmt.Errorf("characterize %s/%s: %w", key.system, key.program, err)
			return
		}
		m, err := core.New(sum.Inputs, nil)
		if err != nil {
			e.err = fmt.Errorf("model %s/%s: %w", key.system, key.program, err)
			return
		}
		end := time.Now()
		delta := eng.Snapshot().Sub(pre)
		if rt != nil {
			rt.AddSpan("model", fmt.Sprintf("characterize %s/%s", key.system, key.program), start, end)
		}
		annotate(ctx, slog.Uint64("engine_events", delta.Events))
		s.mChar.With(key.system, key.program).Inc()
		s.mModels.With().Inc()
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "characterized",
			slog.String("system", key.system),
			slog.String("program", key.program),
			slog.Duration("duration", end.Sub(start)),
			slog.Uint64("engine_events", delta.Events),
			slog.Uint64("mpi_messages", delta.Messages))
		// Persist before publishing: if the process dies between here and
		// ready, the next boot warm-loads the snapshot instead of losing
		// the campaign.
		s.snapshotModel(key, sum)
		e.prof, e.spec, e.model = prof, spec, m
		e.ready.Store(true)
	})
	if e.err != nil {
		return nil, e.err
	}
	if !e.ready.Load() {
		return nil, fmt.Errorf("characterize %s/%s: %w", key.system, key.program, errCharAborted)
	}
	return e, nil
}

// readyModel returns the characterised model for key, or nil while there
// is none.
func (s *Server) readyModel(key modelKey) *modelEntry {
	s.mu.Lock()
	e := s.models[key]
	s.mu.Unlock()
	if e != nil && e.ready.Load() {
		return e
	}
	return nil
}

// catalogue returns the profile and program spec of system and program,
// nil for an unknown name — the api.Catalogue batch validation resolves
// through. A ready model already holds both; machine.ByName and
// workload.ByName rebuild their whole catalogue on every call.
func (s *Server) catalogue(system, program string) (*machine.Profile, *workload.Spec) {
	if e := s.readyModel(modelKey{system: system, program: program}); e != nil {
		return e.prof, e.spec
	}
	return api.Lookup(system, program)
}

// acquire claims one admission slot, returning an idempotent release.
// ok is false when the semaphore is saturated; the caller sheds the
// request with reject.
func (s *Server) acquire() (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
		var once sync.Once
		return func() { once.Do(func() { <-s.sem }) }, true
	default:
		return nil, false
	}
}

// reject sheds a request at the admission boundary: 429 with a
// Retry-After hint, counted per route.
func (s *Server) reject(w http.ResponseWriter, route string) {
	s.mRejected.With(route, "saturated").Inc()
	w.Header().Set("Retry-After", "1")
	api.Error(w, http.StatusTooManyRequests,
		"saturated: %d characterisation/sweep campaigns already in flight; retry later", cap(s.sem))
}

// interrupted maps a cancelled or timed-out model/sweep error to a 503
// with Retry-After (the work was shed, not wrong; a retry may succeed)
// and reports whether it handled the error.
func interrupted(w http.ResponseWriter, err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, errCharAborted) || errors.Is(err, errFlightAborted) {
		w.Header().Set("Retry-After", "1")
		api.Error(w, http.StatusServiceUnavailable, "request interrupted: %v", err)
		return true
	}
	return false
}

// resolve validates the model coordinates shared by predict and sweep and
// returns the cached (characterising if needed) model entry plus the
// class iteration count. admitted marks callers already holding an
// admission slot (sweep), so a cold characterisation doesn't claim a
// second one. Unknown names and malformed classes are the caller's fault
// (400); a shed campaign is 429 + Retry-After; a cancelled, timed-out or
// aborted campaign is retryable (503 + Retry-After); a failed
// characterisation of valid coordinates is ours (500).
func (s *Server) resolve(w http.ResponseWriter, r *http.Request, system, program, class string, admitted bool) (*modelEntry, workload.Class, int, bool) {
	m, err := api.ResolveModel(system, program, class)
	if err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return nil, "", 0, false
	}
	annotate(r.Context(),
		slog.String("system", system),
		slog.String("program", program),
		slog.String("class", m.Class))
	e, err := s.model(r.Context(), modelKey{system: system, program: program}, admitted)
	if err != nil {
		if errors.Is(err, errSaturated) {
			s.reject(w, r.URL.Path)
			return nil, "", 0, false
		}
		if interrupted(w, err) {
			return nil, "", 0, false
		}
		api.Error(w, http.StatusInternalServerError, "characterisation failed: %v", err)
		return nil, "", 0, false
	}
	return e, workload.Class(m.Class), m.Iters, true
}

// checkEngine validates a request's "engine" field, a no-op alias (see
// api.CheckEngine): an unknown name is the caller's fault (400,
// structured).
func checkEngine(w http.ResponseWriter, engine string) bool {
	if err := api.CheckEngine(engine); err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return false
	}
	return true
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	rt := RequestTraceFrom(r.Context())
	var tDecode time.Time
	if rt != nil {
		tDecode = time.Now()
	}
	body, ok := api.ReadBody(w, r, api.MaxBodyBytes)
	if !ok {
		return
	}
	var req api.PredictRequest
	if err := api.DecodePredict(body, &req); err != nil {
		api.BadBody(w, err)
		return
	}
	if rt != nil {
		rt.AddSpan("handler", "decode", tDecode, time.Now())
	}
	if !checkEngine(w, req.Engine) {
		return
	}
	if s.forwardIfRemote(w, r, body, req.System, req.Program) {
		return
	}
	// Predicts on a warm model are pure arithmetic and stay unthrottled;
	// only a predict that must first run a characterisation campaign
	// competes for an admission slot (claimed by the campaign leader
	// inside model, so concurrent cold predicts for one key don't shed
	// each other).
	e, class, S, ok := s.resolve(w, r, req.System, req.Program, req.Class, false)
	if !ok {
		return
	}
	cfg := machine.Config{Nodes: req.Nodes, Cores: req.Cores, Freq: req.FreqGHz * 1e9}
	if req.FreqGHz == 0 {
		cfg.Freq = e.prof.FMax()
	}
	if err := e.prof.ValidateModelConfig(cfg); err != nil {
		api.Error(w, http.StatusBadRequest, "invalid configuration: %v", err)
		return
	}
	annotate(r.Context(), slog.String("config", cfg.String()))
	t0 := time.Now()
	pred, err := e.model.Predict(cfg, S)
	if err != nil {
		api.Error(w, http.StatusBadRequest, "prediction rejected: %v", err)
		return
	}
	tPred := time.Now()
	if rt != nil {
		rt.AddSpan("model", fmt.Sprintf("predict %s/%s", req.System, req.Program), t0, tPred)
	}
	pj := api.ToPrediction(pred)
	if !pj.Finite() {
		api.Error(w, http.StatusInternalServerError, "prediction at %v is not finite", cfg)
		return
	}
	s.applyAttribution(w, r, "/v1/predict", makeAttribution(api.Cost{Predictions: 1, SimSeconds: pj.TimeS, EnergyJ: pj.EnergyJ}))
	endRender := rt.Span("handler", "render")
	w.Header().Set("Content-Type", "application/json")
	w.Write(api.AppendPredictResponse(make([]byte, 0, 256), req.System, req.Program, string(class), pj))
	endRender()
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	rt := RequestTraceFrom(r.Context())
	var tDecode time.Time
	if rt != nil {
		tDecode = time.Now()
	}
	body, ok := api.ReadBody(w, r, api.MaxBodyBytes)
	if !ok {
		return
	}
	var req api.SweepRequest
	if err := api.DecodeSweep(body, &req); err != nil {
		api.BadBody(w, err)
		return
	}
	if rt != nil {
		rt.AddSpan("handler", "decode", tDecode, time.Now())
	}
	if !checkEngine(w, req.Engine) {
		return
	}
	if s.forwardIfRemote(w, r, body, req.System, req.Program) {
		return
	}
	// Coordinates are validated — and defaults resolved — before the
	// response cache is consulted, so the cache key is canonical (an
	// explicit max_nodes equal to the testbed size hits the same entry as
	// an omitted one) and garbage requests never reach the cache.
	sw, err := api.ResolveSweep(&req)
	if err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	if workers > 4*runtime.GOMAXPROCS(0) {
		workers = 4 * runtime.GOMAXPROCS(0)
	}
	annotate(r.Context(),
		slog.String("system", req.System),
		slog.String("program", req.Program),
		slog.String("class", sw.Class),
		slog.Int("workers", workers))

	key := sweepCacheKey(req.System, req.Program, sw.Class, sw.MaxNodes, req.Pow2, req.DeadlineS, req.BudgetJ)
	s.respondCached(w, r, "/v1/sweep", key, func() (*cachedResponse, error) {
		// Sweeps always count against the campaign budget: even on a warm
		// model a full-space evaluation is the heavy path. The flight
		// leader's slot covers the whole computation, including a cold
		// characterisation (model is told the request is already
		// admitted); collapsed followers and cache hits never claim one.
		release, ok := s.acquire()
		if !ok {
			return nil, fmt.Errorf("sweep: %w", errSaturated)
		}
		defer release()
		e, err := s.model(r.Context(), modelKey{system: req.System, program: req.Program}, true)
		if err != nil {
			return nil, err
		}
		cfgs := sw.Space(req.Pow2)
		t0 := time.Now()
		points, err := pareto.EvaluateParallel(r.Context(), e.model, cfgs, sw.Iters, workers)
		if err != nil {
			return nil, fmt.Errorf("sweep failed: %w", err)
		}
		front := pareto.Frontier(points)
		tEval := time.Now()
		if rt != nil {
			rt.AddSpan("model", fmt.Sprintf("evaluate %s/%s (%d cfgs)", req.System, req.Program, len(cfgs)), t0, tEval)
		}
		endRender := rt.Span("handler", "render")
		doc, cost, err := api.RenderSweep(api.SweepSummary{System: req.System, Program: req.Program, Class: sw.Class, Configs: len(cfgs)},
			points, front, req.DeadlineS, req.BudgetJ)
		endRender()
		if err != nil {
			return nil, err
		}
		// Attribution covers what the body carries: the frontier points.
		return &cachedResponse{Doc: doc, attr: makeAttribution(cost)}, nil
	})
}

// handleSystems serves the static capability document. It is rendered
// once per process and carries a strong ETag (content hash), so pollers
// — loadgen enumerates the config space from it before every batch run —
// revalidate with If-None-Match and get a body-less 304.
func (s *Server) handleSystems(w http.ResponseWriter, r *http.Request) {
	s.systemsOnce.Do(func() {
		s.systemsBody = append(api.MustJSON(systemsDocument()), '\n')
		sum := sha256.Sum256(s.systemsBody)
		s.systemsETag = `"` + hex.EncodeToString(sum[:8]) + `"`
	})
	w.Header().Set("ETag", s.systemsETag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, s.systemsETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.systemsBody)
}

// etagMatches implements If-None-Match for a single strong ETag: "*"
// matches anything, otherwise each comma-separated candidate is compared
// after stripping an optional W/ weak prefix (weak comparison is fine for
// If-None-Match).
func etagMatches(header, etag string) bool {
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" {
			return true
		}
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

// systemsDocument builds the /v1/systems payload. It keeps the engines
// and default_engine keys clients read, listing the one engine.
func systemsDocument() api.Systems {
	profiles := machine.Profiles()
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	var systems []api.System
	for _, n := range names {
		p := profiles[n]
		freqs := make([]float64, len(p.Frequencies))
		for i, f := range p.Frequencies {
			freqs[i] = f / 1e9
		}
		topo := p.Topology
		if topo == "" {
			topo = machine.TopologyShared
		}
		systems = append(systems, api.System{
			Name: n, ISA: p.ISA, MaxNodes: p.MaxNodes, CoresPerNode: p.CoresPerNode,
			FreqsGHz: freqs, Topology: string(topo),
		})
	}
	var programs []string
	for _, spec := range workload.Extended() {
		programs = append(programs, spec.Name)
	}
	return api.Systems{Systems: systems, Programs: programs, Classes: classNames(),
		Engines: []string{api.Engine}, DefaultEngine: api.Engine}
}

func classNames() []string {
	var out []string
	for _, c := range workload.Classes() {
		out = append(out, string(c))
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}

// handleDebugTrace samples every request that starts in the requested
// window (default 1s, capped at 30s) and returns the span trees of those
// that finished inside it as Chrome-trace JSON: the on-demand "what is
// the server doing right now" probe, served from the trace store.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	dur := time.Second
	if q := r.URL.Query().Get("duration"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			api.Error(w, http.StatusBadRequest, "bad duration %q", q)
			return
		}
		dur = d
	}
	if dur > 30*time.Second {
		dur = 30 * time.Second
	}
	payloads, ok := s.traces.Window(r.Context(), dur)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := WriteChromeTrace(w, payloads); err != nil {
		s.log.LogAttrs(r.Context(), slog.LevelError, "trace export failed", slog.Any("err", err))
	}
}
