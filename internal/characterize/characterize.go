// Package characterize orchestrates the measurement campaign of Figure 2's
// left column: baseline executions of the small input on a single node
// across every (c, f) point (hardware counters), an mpiP profiling run for
// the communication characteristics, NetPIPE network characterisation and
// the power micro-benchmarks — producing the analytical model's inputs.
package characterize

import (
	"context"
	"fmt"

	"hybridperf/internal/core"
	"hybridperf/internal/exec"
	"hybridperf/internal/machine"
	"hybridperf/internal/metrics"
	"hybridperf/internal/mpip"
	"hybridperf/internal/netpipe"
	"hybridperf/internal/powerbench"
	"hybridperf/internal/trace"
	"hybridperf/internal/workload"
)

// Options control the characterisation campaign.
type Options struct {
	Seed          int64
	Workers       int            // parallel simulation workers (default 4)
	BaselineClass workload.Class // default ClassS, the paper's small input Ps
	ProfileNodes  int            // nodes for the mpiP run (default 2)
	// Ctx, when non-nil, cancels the campaign cooperatively: it is
	// checked between stages and threaded into every simulation request,
	// so a cancelled context stops in-flight simulations mid-run and the
	// campaign returns an error wrapping ctx.Err(). Nil runs to
	// completion. An uncancelled context never perturbs results.
	Ctx context.Context
	// Metrics instruments every simulation of the campaign and fills the
	// Summary's aggregate engine counters. Off by default (the counters
	// never alter results, only observe them).
	Metrics bool
	// SharedMetrics, when non-nil, accumulates every simulation's engine
	// counters into this shared engine (see exec.Request.SharedMetrics) —
	// the serving layer's process-lifetime counter set. The Summary's own
	// aggregate still requires Metrics, since per-run deltas on a shared
	// engine overlap under concurrency.
	SharedMetrics *metrics.Engine
	// PhaseTrace, when non-nil, receives the per-rank phase timeline of
	// the campaign's designated profiling run — the mpiP run when the
	// program communicates, the first baseline execution otherwise —
	// labelled with the program and configuration (see
	// exec.Request.PhaseSink). Distributed tracing attaches this timeline
	// to the sampled request that triggered the campaign. Purely
	// observational: results are bit-identical with or without it.
	PhaseTrace func(label string, events []trace.Event)
}

func (o *Options) fill() {
	if o.Workers < 1 {
		o.Workers = 4
	}
	if o.BaselineClass == "" {
		o.BaselineClass = workload.ClassS
	}
	if o.ProfileNodes < 2 {
		o.ProfileNodes = 2
	}
}

// Summary keeps the raw characterisation artefacts alongside the model
// inputs, for reporting (Figure 3, power tables) and diagnostics.
type Summary struct {
	Inputs   core.Inputs
	NetPipe  []netpipe.Point
	Power    *powerbench.Result
	MpiP     mpip.Report
	Baseline map[machine.CF]core.BaselinePoint

	// BaselineClass is the workload class the baseline sweep actually ran
	// (Options.BaselineClass after defaulting). Snapshot stores key on it:
	// two campaigns agree bit-for-bit only if they characterised the same
	// baseline input.
	BaselineClass workload.Class

	// Metrics is the summed engine-counter snapshot over MetricsRuns
	// instrumented simulations (only with Options.Metrics).
	Metrics     metrics.EngineSnapshot
	MetricsRuns int
}

// commFromSpec builds the model's communication law from the program's
// decomposition structure, with message volumes calibrated by the mpiP
// measurement (measured mean volume over the structurally expected one at
// the profiled node count) — the paper's "communication characteristics
// inferred from l and τ" with mpiP providing the volumes.
func commFromSpec(spec *workload.Spec, cal float64) core.HybridComm {
	return core.HybridComm{
		HaloMsgs:        spec.HaloMsgs,
		HaloBytes:       spec.HaloBytesN2 * cal,
		HaloExp:         spec.HaloExp,
		CollectiveBytes: spec.CollectiveBytes * cal,
		Barrier:         spec.BarrierPerIter,
		AlltoallVolume:  spec.AlltoallVolume * cal,
	}
}

// Run performs the full characterisation of one program on one system and
// returns the model inputs.
func Run(prof *machine.Profile, spec *workload.Spec, opts Options) (*Summary, error) {
	opts.fill()
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	baseIters, err := spec.Iterations(opts.BaselineClass)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("characterize: cancelled: %w", err)
	}

	// 1. Network characterisation (NetPIPE, Figure 3).
	points, netModel, err := netpipe.Characterize(prof)
	if err != nil {
		return nil, fmt.Errorf("characterize: network: %w", err)
	}

	// 2. Power characterisation.
	power, err := powerbench.Characterize(prof, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("characterize: power: %w", err)
	}

	// 3. Baseline executions: single node, all (c,f), small input. Every
	// request carries the campaign context, so one cancellation stops
	// each in-flight simulation mid-run and fails the queued remainder
	// at their upfront check.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("characterize: cancelled before baseline sweep: %w", err)
	}
	var reqs []exec.Request
	var keys []machine.CF
	for c := 1; c <= prof.CoresPerNode; c++ {
		for _, f := range prof.Frequencies {
			keys = append(keys, machine.CF{Cores: c, Freq: f})
			reqs = append(reqs, exec.Request{
				Prof:          prof,
				Spec:          spec,
				Class:         opts.BaselineClass,
				Cfg:           machine.Config{Nodes: 1, Cores: c, Freq: f},
				Seed:          opts.Seed + int64(len(reqs)),
				Ctx:           opts.Ctx,
				Metrics:       opts.Metrics,
				SharedMetrics: opts.SharedMetrics,
			})
		}
	}
	// A program that never communicates skips the mpiP run below, so its
	// designated phase-trace run is the first baseline execution instead.
	if opts.PhaseTrace != nil && spec.MsgsPerIter(opts.ProfileNodes) == 0 && len(reqs) > 0 {
		reqs[0].PhaseSink = opts.PhaseTrace
	}
	results, err := exec.Sweep(reqs, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("characterize: baseline: %w", err)
	}
	// Summary aggregation only for the per-run (non-shared) engines: with
	// a shared engine, concurrent per-run deltas overlap and double-count.
	var agg metrics.EngineSnapshot
	aggRuns := 0
	if opts.Metrics && opts.SharedMetrics == nil {
		agg, aggRuns = exec.SweepMetrics(results)
	}
	baseline := make(map[machine.CF]core.BaselinePoint, len(results))
	for i, res := range results {
		baseline[keys[i]] = core.BaselinePoint{
			W: res.Totals.WorkCycles,
			B: res.Totals.BStallCycles,
			M: res.Totals.MemStallCycles,
			U: res.Utilization,
		}
	}

	// 4. Communication profiling (mpiP) on a small multi-node run.
	comm := core.CommModel(nil)
	var report mpip.Report
	if spec.MsgsPerIter(opts.ProfileNodes) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("characterize: cancelled before mpiP run: %w", err)
		}
		n := opts.ProfileNodes
		if n > prof.MaxNodes {
			n = prof.MaxNodes
		}
		res, err := exec.Run(exec.Request{
			Prof:          prof,
			Spec:          spec,
			Class:         opts.BaselineClass,
			Cfg:           machine.Config{Nodes: n, Cores: 1, Freq: prof.FMax()},
			Seed:          opts.Seed + 7919,
			Ctx:           opts.Ctx,
			Metrics:       opts.Metrics,
			SharedMetrics: opts.SharedMetrics,
			PhaseSink:     opts.PhaseTrace,
		})
		if err != nil {
			return nil, fmt.Errorf("characterize: mpiP run: %w", err)
		}
		if opts.Metrics && opts.SharedMetrics == nil && res.Metrics != nil {
			agg.Add(res.Metrics.Engine)
			aggRuns++
		}
		report, err = mpip.FromRun(res.Comm, baseIters, res.Time)
		if err != nil {
			return nil, err
		}
		cal := 1.0
		if expected := spec.MeanMsgBytes(n); expected > 0 && report.BytesPerMsg > 0 {
			cal = report.BytesPerMsg / expected
		}
		comm = commFromSpec(spec, cal)
	}

	in := core.Inputs{
		System:        prof.Name,
		Program:       spec.Name,
		NetTopology:   prof.Topology,
		BaselineIters: baseIters,
		Baseline:      baseline,
		Comm:          comm,
		Net:           netModel,
		Power:         power.Model,
	}
	return &Summary{
		Inputs:        in,
		NetPipe:       points,
		Power:         power,
		MpiP:          report,
		Baseline:      baseline,
		BaselineClass: opts.BaselineClass,
		Metrics:       agg,
		MetricsRuns:   aggRuns,
	}, nil
}
