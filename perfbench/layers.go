package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hybridperf/internal/characterize"
	"hybridperf/internal/core"
	"hybridperf/internal/gateway"
	"hybridperf/internal/machine"
	"hybridperf/internal/metrics"
	"hybridperf/internal/modelstore"
	"hybridperf/internal/pareto"
	"hybridperf/internal/workload"
)

// Replay and probe sizes of the traced run. One request in replayEvery
// (every advise request) is replayed. A probe times a layer the
// workload's own requests do not reach, on inputs drawn from the same
// seed, so every per-layer time is measured on every workload.
const (
	replayEvery   = 4
	gatewayProbes = 200
	adviseProbes  = 4
	sweepProbes   = 32
)

// layerInput is everything the per-layer metrics are computed from.
type layerInput struct {
	workload string
	seed     int64
	dir      string
	list     []request
	stack    *stack
	loader   *loader
	tracer   *tracer
	oracle   oracle
	untraced *phase
	traced   *phase
	replayed *phase
	replays  *replays
	warms    []time.Duration
	counters counters
	runtime  [2]runtimeStats
}

// layerTimes accumulates the direct timings of the layers below the
// serving stack.
type layerTimes struct {
	evalNS, evalPreds float64   // pareto.EvaluateParallel
	coreNS, corePreds float64   // core.Model.Predict
	sweeps            []float64 // pareto sweep (evaluate + frontier) [us]
	advises           []float64 // characterize.Advise [ms]
	runsPerAdvise     []float64
	runs, governed    []float64 // exec.Run ungoverned / governed [ms]
	events, execNS    float64
}

func (lt *layerTimes) merge(o *layerTimes) {
	lt.evalNS += o.evalNS
	lt.evalPreds += o.evalPreds
	lt.coreNS += o.coreNS
	lt.corePreds += o.corePreds
	lt.sweeps = append(lt.sweeps, o.sweeps...)
	lt.advises = append(lt.advises, o.advises...)
	lt.runsPerAdvise = append(lt.runsPerAdvise, o.runsPerAdvise...)
	lt.runs = append(lt.runs, o.runs...)
	lt.governed = append(lt.governed, o.governed...)
	lt.events += o.events
	lt.execNS += o.execNS
}

// The share table's layers, outermost first.
var shareLayers = []string{"transport", "gateway", "telemetry", "characterize", "exec", "pareto", "core"}

// layerMetrics turns the traced run into the per-layer metrics, prints
// the layer-share table and writes the span file.
func layerMetrics(in layerInput) (map[string]metric, error) {
	tr := in.tracer
	lt := &in.replays.lt
	tr.on.Store(true)
	defer tr.on.Store(false)
	spans := tr.snapshot()
	link(spans)
	kids := children(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	// outer returns the handler span a client span called.
	outer := func(client span) (span, error) {
		for _, k := range kids[client.ID] {
			if k.Name == layerGateway || k.Name == layerShard {
				return k, nil
			}
		}
		return span{}, fmt.Errorf("client span %d: no handler span shares its trace id", client.ID)
	}
	// shardTime is how long shard handlers ran within the outer handler.
	shardTime := func(o span) (int64, []span) {
		if o.Name != layerGateway {
			return o.dur(), []span{o}
		}
		return covered(o.Start, o.End, kids[o.ID]), kids[o.ID]
	}

	// Handler, transport and gateway times come from the traced phase,
	// which records spans but replays nothing.
	var transport, handlers, gatewaySelf []float64
	byRouteHandler := map[string][]float64{}
	byRouteGateway := map[string][]float64{}
	for _, s := range in.traced.Samples {
		if !s.OK {
			continue
		}
		client := byID[s.SpanID]
		o, err := outer(client)
		if err != nil {
			return nil, err
		}
		transport = append(transport, float64(client.dur()-o.dur())/1e3)
		shard, shardSpans := shardTime(o)
		if o.Name == layerGateway {
			self := float64(o.dur()-shard) / 1e3
			gatewaySelf = append(gatewaySelf, self)
			byRouteGateway[s.Route] = append(byRouteGateway[s.Route], self)
		}
		for _, k := range shardSpans {
			handlers = append(handlers, float64(k.dur())/1e3)
			byRouteHandler[s.Route] = append(byRouteHandler[s.Route], float64(k.dur())/1e3)
		}
	}

	// Shares come from the replay phase: each request's shard-handler
	// time is split into the serving layer's own time and the time the
	// direct replay of its model call took, run right after the request
	// under the same load.
	shares := map[string]float64{}
	var rttTotal, overheadNS, overheadPreds float64
	replayed := 0
	for _, s := range in.replayed.Samples {
		parts, ok := in.replays.parts[s.SpanID]
		if !s.OK || !ok {
			continue
		}
		client := byID[s.SpanID]
		o, err := outer(client)
		if err != nil {
			return nil, err
		}
		shard, _ := shardTime(o)
		lower := parts.lower()
		capped := min(lower, float64(shard))
		scale := 1.0
		if lower > 0 {
			scale = capped / lower
		}
		replayed++
		overheadNS += float64(shard) - capped
		overheadPreds += float64(s.Preds)
		rttTotal += float64(client.dur())
		shares["transport"] += float64(client.dur() - o.dur())
		shares["gateway"] += float64(o.dur() - shard)
		shares["telemetry"] += float64(shard) - capped
		shares["characterize"] += (parts.advise - parts.exec) * scale
		shares["exec"] += parts.exec * scale
		coreInEval := min(parts.core, parts.eval)
		shares["pareto"] += (parts.eval - coreInEval) * scale
		if parts.eval > 0 {
			shares["core"] += coreInEval * scale
		} else {
			shares["core"] += parts.core * scale
		}
	}
	if replayed == 0 {
		return nil, fmt.Errorf("the replay phase completed no request")
	}

	if len(gatewaySelf) == 0 {
		g, err := probeGateway(in)
		if err != nil {
			return nil, err
		}
		gatewaySelf = g
	}
	if err := probeLayers(in, lt); err != nil {
		return nil, err
	}
	put, load, err := probeStore(in)
	if err != nil {
		return nil, err
	}

	spanPath := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.json", in.workload, in.seed))
	if err := writeChrome(spanPath, tr.snapshot()); err != nil {
		return nil, err
	}

	untracedP50 := p50Latency(in.untraced)
	tracedP50 := p50Latency(in.traced)
	c := in.counters
	untracedN := float64(len(in.untraced.Samples))
	hits, misses := c["hybridperf_response_cache_hits_total"], c["hybridperf_response_cache_misses_total"]
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	subreqs := 0.0
	if g := c["hybridperf_gateway_requests_total"]; g > 0 {
		subreqs = c["hybridperf_gateway_fanout_total"] / g
	}
	rt0, rt1 := in.runtime[0], in.runtime[1]
	var warmMS []float64
	for _, w := range in.warms {
		warmMS = append(warmMS, float64(w)/1e6)
	}

	out := map[string]metric{
		"transport.overhead_us_p50":      {percentile(transport, 50), "us"},
		"gateway.self_us_p50":            {percentile(gatewaySelf, 50), "us"},
		"gateway.subrequests_per_req":    {subreqs, "count"},
		"gateway.fanout_errors":          {c["hybridperf_gateway_fanout_errors_total"], "count"},
		"telemetry.handler_us_p50":       {percentile(handlers, 50), "us"},
		"telemetry.overhead_ns_per_pred": {overheadNS / overheadPreds, "ns"},
		"telemetry.cache_hit_ratio":      {hitRatio, "ratio"},
		"telemetry.cache_evictions":      {c["hybridperf_response_cache_evictions_total"], "count"},
		"telemetry.rejected_429":         {c["hybridperf_http_requests_rejected_total"], "count"},
		"telemetry.characterizations":    {c["hybridperf_model_characterizations_total"], "count"},
		"pareto.evaluate_ns_per_pred":    {lt.evalNS / lt.evalPreds, "ns"},
		"pareto.sweep_us_p50":            {percentile(lt.sweeps, 50), "us"},
		"core.predict_ns":                {lt.coreNS / lt.corePreds, "ns"},
		"characterize.campaign_ms_p50":   {percentile(warmMS, 50), "ms"},
		"characterize.advise_ms_p50":     {percentile(lt.advises, 50), "ms"},
		"characterize.runs_per_advise":   {mean(lt.runsPerAdvise), "count"},
		"exec.run_ms_p50":                {percentile(lt.runs, 50), "ms"},
		"exec.governed_run_ms_p50":       {percentile(lt.governed, 50), "ms"},
		"exec.events_per_run":            {lt.events / float64(len(lt.runs)+len(lt.governed)), "count"},
		"exec.ns_per_event":              {lt.execNS / lt.events, "ns"},
		"exec.engine_events_per_req":     {c["hybridperf_engine_events_total"] / untracedN, "count"},
		"modelstore.put_ms":              {put, "ms"},
		"modelstore.load_ms":             {load, "ms"},
		"runtime.gc_cpu_share":           {(rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU), "ratio"},
		"runtime.alloc_bytes_per_req":    {(rt1.allocBytes - rt0.allocBytes) / untracedN, "B"},
		"trace.overhead_pct":             {(tracedP50 - untracedP50) / untracedP50 * 100, "%"},
	}
	for _, l := range shareLayers {
		out["share."+l+"_pct"] = metric{shares[l] / rttTotal * 100, "%"}
	}

	fmt.Printf("\nlayer shares of a %s request (%d requests replayed layer by layer)\n", in.workload, replayed)
	fmt.Printf("  %-13s %12s %8s\n", "layer", "us/request", "share")
	for _, l := range shareLayers {
		fmt.Printf("  %-13s %12.2f %7.2f%%\n", l, shares[l]/float64(replayed)/1e3, shares[l]/rttTotal*100)
	}
	fmt.Printf("  %-13s %12.2f %7.2f%%\n", "client RTT", rttTotal/float64(replayed)/1e3, 100.0)
	for _, r := range []string{routePredict, routeBatch, routeSweep, routeAdvise} {
		if h := byRouteHandler[r]; len(h) > 0 {
			fmt.Printf("  telemetry.handler_us_p50 %-12s %10.1f us (n=%d)\n", r, percentile(h, 50), len(h))
		}
		if g := byRouteGateway[r]; len(g) > 0 {
			fmt.Printf("  gateway.self_us_p50      %-12s %10.1f us (n=%d)\n", r, percentile(g, 50), len(g))
		}
	}
	fmt.Printf("  tracing overhead: latency p50 %.4f ms traced, %.4f ms untraced (%+.2f%%)\n",
		tracedP50, untracedP50, (tracedP50-untracedP50)/untracedP50*100)
	fmt.Printf("  spans: %s\n", spanPath)
	return out, nil
}

func p50Latency(p *phase) float64 {
	var l []float64
	for _, s := range p.Samples {
		if s.OK {
			l = append(l, float64(s.Lat)/1e6)
		}
	}
	return percentile(l, 50)
}

// replayParts are the wall times [ns] of one request's direct replay.
type replayParts struct {
	eval, core, advise, exec float64
}

// lower is the time of the call the shard handler made into the layers
// below it.
func (p replayParts) lower() float64 {
	switch {
	case p.advise > 0:
		return p.advise
	case p.eval > 0:
		return p.eval
	}
	return p.core
}

// replays re-runs directly, on the client's goroutine right after each
// request of the replay phase, the layer calls the server made for it,
// so the replay runs under the same load the handler saw.
type replays struct {
	oracle oracle
	tr     *tracer
	mu     sync.Mutex
	lt     layerTimes
	parts  map[int]replayParts // by client span id
	err    error
}

func newReplays(o oracle, tr *tracer) *replays {
	return &replays{oracle: o, tr: tr, parts: map[int]replayParts{}}
}

// replay records the replay as spans under a root that is a child of the
// request's client span. Requests other than advise are cheap and many,
// so only one in replayEvery is replayed.
func (r *replays) replay(req request, client span) {
	if req.Advise == nil && client.ID%replayEvery != 0 {
		return
	}
	tr := r.tr
	var lt layerTimes
	var parts replayParts
	root := &span{ID: tr.newID(), Parent: client.ID, Trace: client.Trace, Name: layerReplayRoot, Route: req.Route, Start: tr.now()}
	var err error
	switch {
	case req.Batch != nil:
		parts, err = r.oracle.replayBatch(tr, &lt, root, req.Batch)
	case req.Predict != nil:
		p := req.Predict
		parts.core, err = r.oracle.timeCore(tr, &lt, root, p.Class, []tuple{{p.System, p.Program, p.Nodes, p.Cores, p.FreqGHz}})
	case req.Sweep != nil:
		parts.eval, parts.core, err = r.oracle.timeSweep(tr, &lt, root, req.Sweep)
	case req.Advise != nil:
		parts, err = r.oracle.timeAdvise(tr, &lt, root, req.Advise)
	}
	root.End = tr.now()
	tr.add(*root)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		if r.err == nil {
			r.err = fmt.Errorf("replay %s: %w", req.Route, err)
		}
		return
	}
	r.parts[client.ID] = parts
	r.lt.merge(&lt)
}

// model returns the library model of a (system, program) and the
// iteration count of a class.
func (o oracle) model(system, program, class string) (*core.Model, int, error) {
	m := o[[2]string{system, program}]
	if m == nil {
		return nil, 0, fmt.Errorf("no model for %s/%s", system, program)
	}
	spec, err := workload.ByName(program)
	if err != nil {
		return nil, 0, err
	}
	S, err := spec.Iterations(workload.Class(class))
	return m.Core(), S, err
}

// replayBatch evaluates a batch the way the server does: one
// EvaluateParallel per (system, program) group with the server's worker
// count, then the same predictions one core.Model.Predict at a time.
func (o oracle) replayBatch(tr *tracer, lt *layerTimes, root *span, b *batchBody) (replayParts, error) {
	var parts replayParts
	groups := map[[2]string][]tuple{}
	var order [][2]string
	for _, t := range uniqueTuples(b.Tuples) {
		k := [2]string{t.System, t.Program}
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], t)
	}
	var all []tuple
	for _, k := range order {
		m, S, err := o.model(k[0], k[1], b.Class)
		if err != nil {
			return parts, err
		}
		cfgs := make([]machine.Config, len(groups[k]))
		for i, t := range groups[k] {
			cfgs[i] = machine.Config{Nodes: t.Nodes, Cores: t.Cores, Freq: freqHz(profile(t.System), t.FreqGHz)}
		}
		ns, err := timeEvaluate(tr, lt, root, m, cfgs, S)
		if err != nil {
			return parts, err
		}
		parts.eval += ns
		all = append(all, groups[k]...)
	}
	ns, err := o.timeCore(tr, lt, root, b.Class, all)
	parts.core = ns
	return parts, err
}

func timeEvaluate(tr *tracer, lt *layerTimes, root *span, m *core.Model, cfgs []machine.Config, S int) (float64, error) {
	s := span{Parent: root.ID, Trace: root.Trace, Name: layerEvaluate, Route: root.Route, Start: tr.now()}
	_, err := pareto.EvaluateParallel(context.Background(), m, cfgs, S, runtime.GOMAXPROCS(0))
	s.End = tr.now()
	tr.add(s)
	lt.evalNS += float64(s.dur())
	lt.evalPreds += float64(len(cfgs))
	return float64(s.dur()), err
}

// timeCore predicts every tuple with one core.Model.Predict call each,
// recorded as one span.
func (o oracle) timeCore(tr *tracer, lt *layerTimes, root *span, class string, ts []tuple) (float64, error) {
	type call struct {
		m   *core.Model
		cfg machine.Config
		S   int
	}
	calls := make([]call, len(ts))
	for i, t := range ts {
		m, S, err := o.model(t.System, t.Program, class)
		if err != nil {
			return 0, err
		}
		calls[i] = call{m, machine.Config{Nodes: t.Nodes, Cores: t.Cores, Freq: freqHz(profile(t.System), t.FreqGHz)}, S}
	}
	s := span{Parent: root.ID, Trace: root.Trace, Name: layerPredict, Route: root.Route, Start: tr.now()}
	for _, c := range calls {
		if _, err := c.m.Predict(c.cfg, c.S); err != nil {
			return 0, err
		}
	}
	s.End = tr.now()
	tr.add(s)
	lt.coreNS += float64(s.dur())
	lt.corePreds += float64(len(calls))
	return float64(s.dur()), nil
}

// timeSweep evaluates a sweep's configuration space and its frontier,
// as the shard does, and then predicts the space one call at a time.
func (o oracle) timeSweep(tr *tracer, lt *layerTimes, root *span, sw *sweepBody) (evalNS, coreNS float64, err error) {
	m, S, err := o.model(sw.System, sw.Program, sw.Class)
	if err != nil {
		return 0, 0, err
	}
	prof := profile(sw.System)
	cfgs := pareto.Space(pareto.Range(1, sw.MaxNodes), prof.CoresPerNode, prof.Frequencies)
	s := span{Parent: root.ID, Trace: root.Trace, Name: layerEvaluate, Route: root.Route, Start: tr.now()}
	pts, err := pareto.EvaluateParallel(context.Background(), m, cfgs, S, runtime.GOMAXPROCS(0))
	if err == nil {
		pareto.Frontier(pts)
	}
	s.End = tr.now()
	tr.add(s)
	if err != nil {
		return 0, 0, err
	}
	lt.evalNS += float64(s.dur())
	lt.evalPreds += float64(len(cfgs))
	lt.sweeps = append(lt.sweeps, float64(s.dur())/1e3)
	ts := make([]tuple, len(cfgs))
	for i, c := range cfgs {
		ts[i] = tuple{sw.System, sw.Program, c.Nodes, c.Cores, c.Freq / 1e9}
	}
	coreNS, err = o.timeCore(tr, lt, root, sw.Class, ts)
	return float64(s.dur()), coreNS, err
}

// timeAdvise runs characterize.Advise as the shard does, with each DES
// run it makes recorded as an exec.Run child span.
func (o oracle) timeAdvise(tr *tracer, lt *layerTimes, root *span, a *adviseBody) (replayParts, error) {
	var parts replayParts
	m, _, err := o.model(a.System, a.Program, a.Class)
	if err != nil {
		return parts, err
	}
	spec, err := workload.ByName(a.Program)
	if err != nil {
		return parts, err
	}
	s := span{ID: tr.newID(), Parent: root.ID, Trace: root.Trace, Name: layerAdvise, Route: root.Route, Start: tr.now()}
	eng := metrics.NewEngine()
	var runs []span
	var mu sync.Mutex
	adv, err := characterize.Advise(m, profile(a.System), spec, characterize.AdviseOptions{
		Class:         workload.Class(a.Class),
		Nodes:         a.Nodes,
		Cores:         a.Cores,
		MaxSlowdown:   a.MaxSlowdownPct / 100,
		Seed:          42,
		Workers:       runtime.GOMAXPROCS(0),
		SharedMetrics: eng,
		Observe: func(label string, start, end time.Time) {
			mu.Lock()
			defer mu.Unlock()
			runs = append(runs, span{Trace: root.Trace, Name: layerExecRun, Route: label,
				Start: int64(start.Sub(tr.epoch)), End: int64(end.Sub(tr.epoch))})
		},
	})
	s.End = tr.now()
	if err != nil {
		return parts, fmt.Errorf("advise %+v: %w", *a, err)
	}
	tr.add(s)
	for i, r := range runs {
		r.Parent = s.ID
		tr.add(r)
		// Advise runs the ungoverned baseline first, alone, then the
		// governed policy runs.
		if i == 0 {
			lt.runs = append(lt.runs, float64(r.dur())/1e6)
		} else {
			lt.governed = append(lt.governed, float64(r.dur())/1e6)
		}
		lt.execNS += float64(r.dur())
	}
	lt.events += float64(eng.Events.Load())
	lt.advises = append(lt.advises, float64(s.dur())/1e6)
	lt.runsPerAdvise = append(lt.runsPerAdvise, float64(adv.Runs))
	parts.advise = float64(s.dur())
	parts.exec = float64(covered(s.Start, s.End, runs))
	return parts, nil
}

// probeLayers times the model layers the workload's own requests did not
// reach: sweeps, and advisory evaluations with their DES runs.
func probeLayers(in layerInput, lt *layerTimes) error {
	probeRoot := func() *span {
		return &span{ID: in.tracer.newID(), Name: layerReplayRoot, Route: "probe"}
	}
	rng := rand.New(rand.NewSource(in.seed ^ 0x9e0be))
	if len(lt.sweeps) == 0 {
		for i := 0; i < sweepProbes; i++ {
			sw := sweepRequest(rng, 1+rng.Intn(maxSweepNodes)).Sweep
			if _, _, err := in.oracle.timeSweep(in.tracer, lt, probeRoot(), sw); err != nil {
				return err
			}
		}
	}
	if len(lt.advises) == 0 {
		for _, r := range auditRequests(in.workload, in.seed, in.list)[:adviseProbes] {
			if _, err := in.oracle.timeAdvise(in.tracer, lt, probeRoot(), r.Advise); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeGateway sends fresh requests of the workload's list through a
// gateway in front of the workload's shard and returns the gateway's own
// time in each [us].
func probeGateway(in layerInput) ([]float64, error) {
	tr := in.tracer
	gw, err := gateway.New([]string{in.stack.shards[0].http.URL}, discardLogger)
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(tr.wrap(layerGateway, gw.Handler()))
	defer srv.Close()
	d := newLoader(srv.URL, in.list)
	defer d.close()
	d.tr = tr
	d.next.Store(in.loader.next.Load())
	n := gatewayProbes
	if in.workload == wlAdviseDES {
		n = adviseProbes
	}
	var ids []int
	for i := 0; i < n; i++ {
		idx := d.next.Add(1) - 1
		s, _, err := d.send(idx, in.list[idx%int64(len(in.list))])
		if err != nil {
			return nil, fmt.Errorf("gateway probe: %w", err)
		}
		ids = append(ids, s.SpanID)
	}
	spans := tr.snapshot()
	link(spans)
	kids := children(spans)
	var out []float64
	for _, id := range ids {
		for _, g := range kids[id] {
			if g.Name == layerGateway {
				out = append(out, float64(selfTime(g, kids[g.ID]))/1e3)
			}
		}
	}
	return out, nil
}

// probeStore writes the twelve models' snapshots into a fresh store and
// loads them back, returning the median Put and the Load time [ms].
func probeStore(in layerInput) (putMS, loadMS float64, err error) {
	dir := filepath.Join(in.dir, "probe-store")
	defer os.RemoveAll(dir)
	store, err := modelstore.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	tr := in.tracer
	var puts []float64
	for _, sys := range systems {
		for _, prog := range programs {
			inputs := in.oracle[[2]string{sys, prog}].Characterization().Inputs
			key := modelstore.Key{System: sys, Program: prog, BaselineClass: string(workload.ClassS),
				BaselineIters: inputs.BaselineIters, Seed: 42}
			s := span{Name: layerStorePut, Route: "probe", Start: tr.now()}
			if err := store.Put(key, inputs); err != nil {
				return 0, 0, err
			}
			s.End = tr.now()
			tr.add(s)
			puts = append(puts, float64(s.dur())/1e6)
		}
	}
	s := span{Name: layerStoreLoad, Route: "probe", Start: tr.now()}
	entries, _, _, err := store.Load()
	s.End = tr.now()
	tr.add(s)
	if err != nil {
		return 0, 0, err
	}
	if len(entries) != len(puts) {
		return 0, 0, fmt.Errorf("model store loaded %d of %d snapshots", len(entries), len(puts))
	}
	return percentile(puts, 50), float64(s.dur()) / 1e6, nil
}
