// Package exec assembles and runs one simulated execution of a hybrid
// program on a cluster configuration, playing the role of the paper's
// "direct measurement": it reports wall-clock time (the `time` command),
// energy (the WattsUp meter, including its calibrated noise), hardware
// counters and the mpiP communication profile.
package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"hybridperf/internal/counters"
	"hybridperf/internal/des"
	"hybridperf/internal/dvfs"
	"hybridperf/internal/machine"
	"hybridperf/internal/metrics"
	"hybridperf/internal/mpi"
	"hybridperf/internal/node"
	"hybridperf/internal/omp"
	"hybridperf/internal/rng"
	"hybridperf/internal/simnet"
	"hybridperf/internal/trace"
	"hybridperf/internal/workload"
)

// Request describes one measurement run.
type Request struct {
	Prof  *machine.Profile
	Spec  *workload.Spec
	Class workload.Class
	Cfg   machine.Config
	Seed  int64

	// Ctx, when non-nil, cancels the run cooperatively: the simulation
	// kernel polls the context every few thousand dispatch steps, so a
	// cancelled context stops the run mid-simulation with an error
	// wrapping ctx.Err() (errors.Is works). A nil Ctx runs to completion.
	// An uncancelled context never perturbs results: runs stay
	// bit-identical with or without one attached.
	Ctx context.Context

	// NoJitter disables OS-noise perturbation (micro-benchmark mode).
	NoJitter bool
	// NoMeterNoise reports exact integrated energy instead of a metered
	// reading.
	NoMeterNoise bool
	// Governor, when non-nil, constructs a per-rank runtime DVFS governor
	// that retunes node frequency at iteration boundaries. Cfg.Freq is
	// the starting level.
	Governor func(rank int) dvfs.Governor
	// Trace records per-rank phase timelines into Result.Trace: every
	// compute burst, memory stall and network wait of each rank's master
	// thread, suitable for Gantt rendering, Chrome-trace export and the
	// measured-UCR derivation.
	Trace bool
	// Metrics attaches engine instrumentation to the run's kernel and
	// fills Result.Metrics with counter snapshots and per-rank phase-time
	// totals. Off by default; the counters never feed back into the
	// simulation, so results are bit-identical either way.
	Metrics bool
	// SharedMetrics, when non-nil, attaches this engine — typically one
	// process-lifetime counter set owned by a serving layer — to the run's
	// kernel instead of a fresh one, accumulating counters across runs
	// (all fields are atomic, so concurrent sweep runs may share it).
	// Result.Metrics then reports the end-minus-start snapshot delta; with
	// concurrent runs on one engine the delta includes overlapping work,
	// so treat per-run deltas as approximate and the shared engine itself
	// as the authoritative cumulative view. Takes precedence over Metrics.
	SharedMetrics *metrics.Engine
	// Observe, when non-nil, is called once after a successful run with a
	// label naming the program and configuration and the wall-clock
	// interval the engine spent producing it — the hook span recorders
	// attach to. Purely observational: the wall clock never feeds into
	// the simulation, so results stay bit-identical.
	Observe func(label string, start, end time.Time)

	// PhaseSink, when non-nil, receives the run's per-rank phase timeline
	// after a successful run, labelled with the program and configuration —
	// even when Trace is false (the recorder is attached either way, but
	// Result.Trace and MeasuredUCR stay gated on Trace, so existing callers
	// see identical results). Distributed tracing uses this to attach one
	// designated run's timeline to a sampled request without changing what
	// the run returns. Purely observational: recording never feeds back
	// into the simulation, so results are bit-identical with or without it.
	PhaseSink func(label string, events []trace.Event)

	// PhaseTotals, when non-nil, receives the run's per-rank, per-kind
	// phase durations after a successful run — bit-equal to
	// trace.Summary over the timeline PhaseSink would receive, but
	// accumulated as the phases happen, so the timeline itself is never
	// stored unless Trace or PhaseSink asks for it. Purely observational,
	// like PhaseSink.
	PhaseTotals func(totals map[int]map[trace.Kind]float64)

	// rankMachine, when non-nil, replaces req.Spec.Machine as the per-rank
	// process builder — a test seam for injecting per-rank failures, which
	// the built-in specs cannot produce after upfront validation, and
	// custom rank bodies.
	rankMachine func(env *workload.Env) (des.Machine, error)
}

// Result is the measurement outcome of one run.
type Result struct {
	Program string
	Class   workload.Class
	Cfg     machine.Config

	Time           float64              // makespan [s]
	Energy         node.EnergyBreakdown // exact integrated cluster energy [J]
	MeasuredEnergy float64              // metered cluster energy [J], noise applied
	PerNode        []node.EnergyBreakdown

	Trace []trace.Event // phase timeline (when requested)
	// MeasuredUCR is the Useful Computation Ratio derived from the
	// recorded timeline (mean over ranks of master-thread compute time
	// over the timeline span) — the measured counterpart of the model's
	// predicted UCR. Zero unless Request.Trace was set.
	MeasuredUCR float64
	// Metrics holds engine counter snapshots and per-rank phase times
	// when Request.Metrics was set.
	Metrics *metrics.RunMetrics

	Totals      counters.Totals   // cluster-wide counter aggregation
	Utilization float64           // mean CPU utilisation U
	Comm        mpi.Profile       // mpiP-style communication profile
	MemWait     des.ResourceStats // node 0 memory controller statistics
	Engine      EngineStats       // DES kernel cost of producing the run
}

// EngineStats reports what the simulation engine spent producing a
// measurement: dispatched events and logical processes created. With the
// persistent worker pools, Procs stays near nodes x cores instead of
// growing with the event count.
type EngineStats struct {
	Events uint64 // events dispatched by the kernel
	Procs  int    // logical simulated processes (ranks, workers, couriers)
}

// rankNames caches process labels for the usual world sizes so sweeps
// don't re-format them per run.
var rankNames = func() (names [64]string) {
	for i := range names {
		names[i] = fmt.Sprintf("rank%d", i)
	}
	return
}()

func rankName(i int) string {
	if i < len(rankNames) {
		return rankNames[i]
	}
	return fmt.Sprintf("rank%d", i)
}

// Run executes one simulation and returns its measurements.
func Run(req Request) (*Result, error) {
	var wall time.Time
	if req.Observe != nil {
		wall = time.Now()
	}
	if err := req.Prof.Validate(); err != nil {
		return nil, err
	}
	if err := req.Spec.Validate(); err != nil {
		return nil, err
	}
	if err := req.Prof.ValidateConfig(req.Cfg); err != nil {
		return nil, err
	}
	if _, err := req.Spec.Iterations(req.Class); err != nil {
		return nil, err
	}
	if req.Ctx != nil {
		if err := req.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("exec: %s on %v: %w", req.Spec.Name, req.Cfg, err)
		}
	}

	root := rng.New(req.Seed)
	k := des.NewKernel()
	k.SetContext(req.Ctx)
	sw := simnet.New(k, req.Prof, req.Cfg.Nodes)

	nodes := make([]*node.Node, req.Cfg.Nodes)
	for i := range nodes {
		var jitter *rng.Stream
		if !req.NoJitter {
			jitter = root.SplitInt("node", i)
		}
		nodes[i] = node.New(k, req.Prof, i, req.Cfg.Cores, req.Cfg.Freq, jitter)
	}
	world := mpi.NewWorld(k, sw, nodes)

	var rec *trace.Recorder
	if req.Trace || req.PhaseSink != nil {
		rec = trace.NewRecorder(0)
	} else if req.PhaseTotals != nil {
		rec = trace.NewSummaryRecorder(0)
	}
	if rec != nil {
		for _, nd := range nodes {
			nd.SetTrace(rec)
		}
	}
	var mx *metrics.Engine
	var pre metrics.EngineSnapshot
	if req.SharedMetrics != nil {
		mx = req.SharedMetrics
		pre = mx.Snapshot()
		k.SetMetrics(mx)
	} else if req.Metrics {
		mx = metrics.NewEngine()
		k.SetMetrics(mx)
	}

	rankMachine := req.Spec.Machine
	if req.rankMachine != nil {
		rankMachine = req.rankMachine
	}
	// Rank failures are collected, not first-error-wins: a multi-rank
	// failure is reported in full, one error per failing rank in rank
	// order, aggregated with errors.Join below.
	var rankErrs []error
	for i := 0; i < req.Cfg.Nodes; i++ {
		env := &workload.Env{
			Rank:  world.Rank(i),
			Team:  omp.NewTeam(k, nodes[i]),
			Class: req.Class,
		}
		if req.Governor != nil {
			env.Governor = req.Governor(i)
		}
		m, err := rankMachine(env)
		if err != nil {
			rankErrs = append(rankErrs, fmt.Errorf("%s: %w", rankName(i), err))
			continue
		}
		k.Spawn(rankName(i), m)
	}
	if err := errors.Join(rankErrs...); err != nil {
		return nil, err
	}
	if err := k.Run(math.Inf(1)); err != nil {
		return nil, fmt.Errorf("exec: %s on %v: %w", req.Spec.Name, req.Cfg, err)
	}

	res := &Result{
		Program: req.Spec.Name,
		Class:   req.Class,
		Cfg:     req.Cfg,
		Time:    k.Now(),
		Comm:    world.Profile(),
		MemWait: nodes[0].MemStats(),
		Engine:  EngineStats{Events: k.Events(), Procs: k.Procs()},
	}
	if req.Trace {
		res.Trace = rec.Events()
		res.MeasuredUCR = trace.UCR(res.Trace)
	}
	if req.PhaseSink != nil {
		req.PhaseSink(fmt.Sprintf("%s %v", req.Spec.Name, req.Cfg), rec.Events())
	}
	if req.PhaseTotals != nil {
		req.PhaseTotals(rec.Summary())
	}
	if mx != nil {
		// For a shared engine, report this run's contribution as the
		// end-minus-start delta (pre is zero for a fresh engine).
		res.Metrics = &metrics.RunMetrics{Engine: mx.Snapshot().Sub(pre)}
	}
	meterNoise := root.Split("meter")
	for _, nd := range nodes {
		e := nd.Energy()
		res.PerNode = append(res.PerNode, e)
		res.Energy.Add(e)
		res.Totals.Add(nd.Totals(res.Time))
		if res.Metrics != nil {
			ph := metrics.RankPhases{Rank: nd.ID}
			for _, c := range nd.Ctrs {
				ph.Compute += c.WorkTime + c.BStallTime
				ph.MemStall += c.MemStallTime
				ph.NetWait += c.NetWaitTime
			}
			res.Metrics.Ranks = append(res.Metrics.Ranks, ph)
		}
	}
	res.Utilization = res.Totals.Utilization()
	res.MeasuredEnergy = res.Energy.Total()
	if !req.NoMeterNoise {
		// The meter's power reading per node is offset by a slowly-varying
		// error with stddev MeterNoiseW (paper Sec. IV.C), integrating to
		// an energy offset proportional to the run time.
		for range nodes {
			res.MeasuredEnergy += meterNoise.Normal(0, req.Prof.MeterNoiseW) * res.Time
		}
		if res.MeasuredEnergy < 0 {
			res.MeasuredEnergy = 0
		}
	}
	if req.Observe != nil {
		req.Observe(fmt.Sprintf("run %s %v", req.Spec.Name, req.Cfg), wall, time.Now())
	}
	return res, nil
}

// runSafe is Run with panics converted to errors, so one faulty request
// cannot kill a sweep worker goroutine (taking the whole process down and
// leaving the other requests unexplained).
func runSafe(req Request) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("exec: run panicked: %v", r)
		}
	}()
	return Run(req)
}

// Sweep runs the requests concurrently on up to `workers` goroutines
// (each simulation has its own kernel, so runs are independent) and
// returns results in request order. Every request is attempted; a failing
// sweep reports all failures, one per failing request index, aggregated
// with errors.Join in request order. A request that panics (bad
// configuration reaching an engine invariant) is reported as that
// request's error rather than crashing the process. The work channel is
// buffered to the full request count so the producer never blocks: even
// if a worker died, the remaining workers drain the queue and Sweep
// terminates.
//
// Cancellation rides the per-request contexts: when the requests carry a
// cancelled (or later-cancelled) Ctx, in-flight simulations stop
// mid-run, queued ones fail their upfront context check, and the joined
// error reports the cancellation per request (errors.Is finds
// context.Canceled / DeadlineExceeded through the join).
func Sweep(reqs []Request, workers int) ([]*Result, error) {
	if workers < 1 {
		workers = 1
	}
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	idx := make(chan int, len(reqs))
	for i := range reqs {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = runSafe(reqs[i])
			}
		}()
	}
	wg.Wait()
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("exec: sweep request %d: %w", i, err))
		}
	}
	if len(failed) > 0 {
		return nil, errors.Join(failed...)
	}
	return results, nil
}

// SweepMetrics aggregates the engine counter snapshots of a sweep's
// instrumented results (requests with Metrics set). It returns the summed
// snapshot and how many results carried metrics.
func SweepMetrics(results []*Result) (metrics.EngineSnapshot, int) {
	var agg metrics.EngineSnapshot
	n := 0
	for _, r := range results {
		if r != nil && r.Metrics != nil {
			agg.Add(r.Metrics.Engine)
			n++
		}
	}
	return agg, n
}
