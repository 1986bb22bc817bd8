package telemetry

import (
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"hybridperf/internal/api"
	"hybridperf/internal/characterize"
	"hybridperf/internal/dvfs"
	"hybridperf/internal/machine"
	"hybridperf/internal/workload"
)

// POST /v1/advise: the online DVFS advisory endpoint. For one (system,
// program, nodes, cores) it picks the static Pareto point over the
// frequency axis, replays the DES once per governor policy from that
// point, and returns each policy's frequency schedule and its
// energy/makespan delta against the ungoverned static run — plus the
// recommended policy. The evaluation itself lives in
// characterize.Advise; this file is only the wire layer: decode,
// validation, canonicalisation, admission, caching, attribution.

// canonPolicies validates the requested policy names and returns the
// canonical selection: the full suite when empty, otherwise the suite
// filtered to the requested set — suite order, duplicates erased.
func canonPolicies(requested []string) ([]string, error) {
	if len(requested) == 0 {
		return dvfs.Policies(), nil
	}
	want := make(map[string]bool, len(requested))
	for _, p := range requested {
		if !dvfs.ValidPolicy(p) {
			return nil, fmt.Errorf("unknown policy %q (have %v)", p, dvfs.Policies())
		}
		want[p] = true
	}
	var out []string
	for _, p := range dvfs.Policies() {
		if want[p] {
			out = append(out, p)
		}
	}
	return out, nil
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	rt := RequestTraceFrom(r.Context())
	var tDecode time.Time
	if rt != nil {
		tDecode = time.Now()
	}
	body, ok := api.ReadBody(w, r, api.MaxBodyBytes)
	if !ok {
		return
	}
	var req api.AdviseRequest
	if err := api.DecodeAdvise(body, &req); err != nil {
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
	// Validate and resolve defaults before the cache is consulted, so
	// the key is canonical (an explicit nodes equal to the testbed size
	// hits the same entry as an omitted one) and garbage requests never
	// reach the cache.
	m, err := api.ResolveModel(req.System, req.Program, req.Class)
	if err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	prof, class := m.Prof, m.Class
	nodes, cores := req.Nodes, req.Cores
	if nodes == 0 {
		nodes = prof.MaxNodes
	}
	if cores == 0 {
		cores = prof.CoresPerNode
	}
	if err := prof.ValidateConfig(machine.Config{Nodes: nodes, Cores: cores, Freq: prof.FMax()}); err != nil {
		api.Error(w, http.StatusBadRequest, "invalid configuration: %v", err)
		return
	}
	policies, err := canonPolicies(req.Policies)
	if err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	slowdown := s.advSlowdown
	if req.MaxSlowdownPct != 0 {
		if !(req.MaxSlowdownPct > 0 && req.MaxSlowdownPct < 100) {
			api.Error(w, http.StatusBadRequest, "max_slowdown_pct %g out of range (0,100)", req.MaxSlowdownPct)
			return
		}
		slowdown = req.MaxSlowdownPct / 100
	}
	annotate(r.Context(),
		slog.String("system", req.System),
		slog.String("program", req.Program),
		slog.String("class", class),
		slog.Int("nodes", nodes),
		slog.Int("cores", cores))

	key := adviseCacheKey(req.System, req.Program, class, nodes, cores, policies, slowdown)
	s.respondCached(w, r, "/v1/advise", key, func() (*cachedResponse, error) {
		// An advisory evaluation runs the DES once per policy plus the
		// baseline — always the heavy path, so it always counts against
		// the campaign budget, exactly like a sweep. The flight leader's
		// slot covers a cold characterisation too (model is told the
		// request is already admitted).
		release, ok := s.acquire()
		if !ok {
			return nil, fmt.Errorf("advise: %w", errSaturated)
		}
		defer release()
		e, err := s.model(r.Context(), modelKey{system: req.System, program: req.Program}, true)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		adv, err := characterize.Advise(e.model, e.prof, e.spec, characterize.AdviseOptions{
			Class:         workload.Class(class),
			Nodes:         nodes,
			Cores:         cores,
			Policies:      policies,
			MaxSlowdown:   slowdown,
			Seed:          s.cfg.Seed,
			Workers:       s.cfg.Workers,
			Ctx:           r.Context(),
			SharedMetrics: s.eng,
		})
		if err != nil {
			return nil, fmt.Errorf("advise failed: %w", err)
		}
		tEval := time.Now()
		if rt != nil {
			rt.AddSpan("model", fmt.Sprintf("advise %s/%s (%d policies)",
				req.System, req.Program, len(adv.Policies)), t0, tEval)
		}
		// Per-policy governor accounting, recorded on the cold path only
		// — cache hits repeat the answer, not the evaluation.
		for _, out := range adv.Policies {
			s.mAdviseEvals.With(out.Policy).Inc()
			if saved := adv.BaselineEnergyJ - out.EnergyJ; saved > 0 {
				s.mAdviseSaved.With(out.Policy).Add(saved)
			}
		}
		s.mAdviseRec.With(adv.Recommended).Inc()
		endRender := rt.Span("handler", "render")
		resp := buildAdviseResponse(req.System, req.Program, class, slowdown, adv)
		endRender()
		return resp, nil
	})
}

// buildAdviseResponse renders both wire shapes of an advise answer — the
// JSON document (summary fields + policies array) and the NDJSON lines
// (one policy per line, then the summary) — by marshalling each policy
// outcome once and splicing the fragments into both shapes.
func buildAdviseResponse(system, program, class string, maxSlowdown float64, adv *characterize.Advice) *cachedResponse {
	sum := api.AdviseSummary{
		System:          system,
		Program:         program,
		Class:           class,
		Nodes:           adv.Static.Cfg.Nodes,
		Cores:           adv.Static.Cfg.Cores,
		Static:          api.ToPrediction(adv.Static.Pred),
		BaselineTimeS:   adv.BaselineTimeS,
		BaselineEnergyJ: adv.BaselineEnergyJ,
		MaxSlowdownPct:  maxSlowdown * 100,
		Recommended:     adv.Recommended,
	}
	outs := make([]api.AdvisePolicy, len(adv.Policies))
	for i, p := range adv.Policies {
		sched := make([]api.AdviseTransition, len(p.Schedule))
		for j, tr := range p.Schedule {
			sched[j] = api.AdviseTransition{Iter: tr.Iter, FreqGHz: tr.Freq / 1e9}
		}
		outs[i] = api.AdvisePolicy{
			Policy:           p.Policy,
			TimeS:            p.TimeS,
			EnergyJ:          p.EnergyJ,
			MakespanDeltaPct: p.TimeDelta * 100,
			EnergyDeltaPct:   p.EnergyDelta * 100,
			Schedule:         sched,
		}
	}
	// Attribution covers the simulations the answer carries: the
	// baseline run plus one governed run per policy.
	return &cachedResponse{
		Doc:  api.Splice(api.MustJSON(sum), "policies", "policy", api.MarshalEach(outs)),
		attr: makeAttribution(api.Cost{Predictions: adv.Runs, SimSeconds: adv.SimSeconds, EnergyJ: adv.SimEnergyJ}),
	}
}
