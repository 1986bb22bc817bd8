package characterize

// Governed-run evaluation: the online DVFS advisory path. For a given
// (system, program, n, c) the static Pareto point fixes the frequency
// offline; the advisor then replays the DES once per governor policy from
// that point and reports each policy's energy/makespan delta against the
// ungoverned static run — quantifying how much residual slack a runtime
// governor reclaims on top of the paper's static choice (ROADMAP open
// item 2; related work Sec. II.A).

import (
	"context"
	"fmt"
	"math"
	"time"

	"hybridperf/internal/core"
	"hybridperf/internal/dvfs"
	"hybridperf/internal/exec"
	"hybridperf/internal/machine"
	"hybridperf/internal/metrics"
	"hybridperf/internal/pareto"
	"hybridperf/internal/trace"
	"hybridperf/internal/workload"
)

// AdviseOptions control one advisory evaluation.
type AdviseOptions struct {
	// Class is the production input class to advise for (default ClassA,
	// the serving default).
	Class workload.Class
	// Nodes and Cores pin the static configuration axes; the advisor
	// chooses the frequency (the static Pareto point minimises EDP over
	// the profile's DVFS levels at this shape).
	Nodes, Cores int
	// Policies names the governor policies to evaluate (dvfs.Policies
	// when empty). Unknown names are an error.
	Policies []string
	// MaxSlowdown is the makespan tolerance: the phase-predictive
	// governor's slowdown budget, and the recommendation cut-off — a
	// policy whose makespan delta exceeds it is never recommended.
	// Defaults to 0.05.
	MaxSlowdown float64
	Seed        int64
	Workers     int // parallel policy runs (default 4)
	// Ctx, SharedMetrics and Observe thread through to every simulation
	// exactly as in Options.
	Ctx           context.Context
	SharedMetrics *metrics.Engine
	Observe       func(label string, start, end time.Time)
}

func (o *AdviseOptions) fill() {
	if o.Class == "" {
		o.Class = workload.ClassA
	}
	if len(o.Policies) == 0 {
		o.Policies = dvfs.Policies()
	}
	if o.MaxSlowdown == 0 {
		o.MaxSlowdown = 0.05
	}
	if o.Workers < 1 {
		o.Workers = 4
	}
}

// PolicyOutcome is one policy's governed run against the static baseline.
type PolicyOutcome struct {
	Policy      string
	TimeS       float64 // governed makespan [s]
	EnergyJ     float64 // governed exact cluster energy [J]
	TimeDelta   float64 // fractional makespan delta vs the baseline run
	EnergyDelta float64 // fractional energy delta vs the baseline run
	// Schedule is rank 0's recorded frequency schedule: the per-phase
	// levels the governor actually chose, opening with the static
	// frequency at iteration 0.
	Schedule []dvfs.Transition
}

// Advice is the advisory evaluation result.
type Advice struct {
	// Static is the static Pareto point (model prediction) the governed
	// runs start from: minimum EDP over the profile's DVFS levels at the
	// requested (n, c).
	Static pareto.Point
	// BaselineTimeS/BaselineEnergyJ measure the ungoverned DES run at the
	// static point — the denominator of every delta. Energy is the exact
	// integrated cluster energy (no meter noise), so deltas are
	// deterministic.
	BaselineTimeS   float64
	BaselineEnergyJ float64
	Policies        []PolicyOutcome
	// Recommended is the policy with the lowest governed energy among
	// those within the MaxSlowdown makespan tolerance; "fixed" (the
	// static oracle) when no policy beats it.
	Recommended string

	// Attribution: simulations performed (baseline + one per policy) and
	// their summed simulated seconds and exact energy.
	Runs       int
	SimSeconds float64
	SimEnergyJ float64
}

// levelsUpTo returns the profile's DVFS levels capped at the static
// frequency — governors reclaim slack below the chosen point, they do not
// overclock past it.
func levelsUpTo(prof *machine.Profile, fmax float64) []float64 {
	var levels []float64
	for _, f := range prof.Frequencies {
		if f <= fmax {
			levels = append(levels, f)
		}
	}
	return levels
}

// governorFor builds the per-rank governor factory for one policy, with a
// ScheduleRecorder wrapped around rank 0's governor. The returned record
// function yields rank 0's schedule after the run.
func governorFor(policy string, prof *machine.Profile, cfg machine.Config, prior map[int]dvfs.PhaseSample, priorIters int, maxSlowdown float64) (func(int) dvfs.Governor, func() []dvfs.Transition, error) {
	levels := levelsUpTo(prof, cfg.Freq)
	rec := &dvfs.ScheduleRecorder{}
	build := func(rank int) (dvfs.Governor, error) {
		switch policy {
		case dvfs.PolicyFixed:
			return dvfs.Fixed(cfg.Freq), nil
		case dvfs.PolicySlack:
			return dvfs.NewInterNodeSlack(levels, 0, 0)
		case dvfs.PolicyPhase:
			sample, at := dvfs.PhaseSample{}, 0.0
			if s, ok := prior[rank]; ok && priorIters > 0 {
				sample = dvfs.PhaseSample{
					Compute:  s.Compute / float64(priorIters),
					MemStall: s.MemStall / float64(priorIters),
					NetWait:  s.NetWait / float64(priorIters),
				}
				at = cfg.Freq
			}
			return dvfs.NewPhasePredictive(levels, at, sample, maxSlowdown)
		default:
			return nil, fmt.Errorf("characterize: unknown policy %q", policy)
		}
	}
	// Validate eagerly for rank 0 so construction errors surface before
	// the run instead of panicking inside it.
	g0, err := build(0)
	if err != nil {
		return nil, nil, err
	}
	rec.G = g0
	factory := func(rank int) dvfs.Governor {
		if rank == 0 {
			return rec
		}
		g, err := build(rank)
		if err != nil {
			// Unreachable: rank 0 validated the same construction.
			panic(err)
		}
		return g
	}
	return factory, rec.Schedule, nil
}

// Advise evaluates the governor policy suite for one (system, program,
// n, c): it picks the static Pareto point over the frequency axis, runs
// the ungoverned DES once at that point (accumulating the per-rank phase
// totals that seed the phase-predictive governor), then replays the run
// once per policy and reports the deltas. Everything is deterministic for
// a fixed seed.
func Advise(m *core.Model, prof *machine.Profile, spec *workload.Spec, opt AdviseOptions) (*Advice, error) {
	opt.fill()
	S, err := spec.Iterations(opt.Class)
	if err != nil {
		return nil, err
	}
	for _, p := range opt.Policies {
		if !dvfs.ValidPolicy(p) {
			return nil, fmt.Errorf("characterize: unknown policy %q (have %v)", p, dvfs.Policies())
		}
	}
	if !(opt.MaxSlowdown > 0 && opt.MaxSlowdown < 1) {
		return nil, fmt.Errorf("characterize: max slowdown %g must be in (0,1)", opt.MaxSlowdown)
	}
	if err := prof.ValidateConfig(machine.Config{Nodes: opt.Nodes, Cores: opt.Cores, Freq: prof.FMax()}); err != nil {
		return nil, err
	}

	// 1. Static Pareto point: minimum EDP over the DVFS levels at (n, c).
	cfgs := make([]machine.Config, 0, len(prof.Frequencies))
	for _, f := range prof.Frequencies {
		cfgs = append(cfgs, machine.Config{Nodes: opt.Nodes, Cores: opt.Cores, Freq: f})
	}
	points, err := pareto.Evaluate(m, cfgs, S)
	if err != nil {
		return nil, fmt.Errorf("characterize: static sweep: %w", err)
	}
	static, ok := pareto.MinEDP(points)
	if !ok {
		return nil, fmt.Errorf("characterize: no feasible static point at n=%d c=%d", opt.Nodes, opt.Cores)
	}

	// 2. Ungoverned baseline run at the static point, with the per-rank
	// phase totals accumulated through PhaseTotals (observation only: the
	// baseline is bit-identical to the same run without the hook).
	base := exec.Request{
		Prof:          prof,
		Spec:          spec,
		Class:         opt.Class,
		Cfg:           static.Cfg,
		Seed:          opt.Seed,
		Ctx:           opt.Ctx,
		SharedMetrics: opt.SharedMetrics,
		Observe:       opt.Observe,
	}
	prior := map[int]dvfs.PhaseSample{}
	base.PhaseTotals = func(totals map[int]map[trace.Kind]float64) {
		for rank, kinds := range totals {
			prior[rank] = dvfs.PhaseSample{
				Compute:  kinds[trace.Compute],
				MemStall: kinds[trace.MemStall],
				NetWait:  kinds[trace.Network],
			}
		}
	}
	baseRes, err := exec.Run(base)
	if err != nil {
		return nil, fmt.Errorf("characterize: baseline run: %w", err)
	}
	baseT, baseE := baseRes.Time, baseRes.Energy.Total()
	if !(baseT > 0) || !(baseE > 0) {
		return nil, fmt.Errorf("characterize: degenerate baseline run (T=%g s, E=%g J)", baseT, baseE)
	}

	// 3. One governed run per policy, same seed and configuration as the
	// baseline — the governor is the only difference.
	reqs := make([]exec.Request, 0, len(opt.Policies))
	schedules := make([]func() []dvfs.Transition, 0, len(opt.Policies))
	for _, policy := range opt.Policies {
		factory, schedule, err := governorFor(policy, prof, static.Cfg, prior, S, opt.MaxSlowdown)
		if err != nil {
			return nil, err
		}
		req := base
		req.PhaseTotals = nil
		req.Governor = factory
		reqs = append(reqs, req)
		schedules = append(schedules, schedule)
	}
	results, err := exec.Sweep(reqs, opt.Workers)
	if err != nil {
		return nil, fmt.Errorf("characterize: governed runs: %w", err)
	}

	adv := &Advice{
		Static:          static,
		BaselineTimeS:   baseT,
		BaselineEnergyJ: baseE,
		Recommended:     dvfs.PolicyFixed,
		Runs:            1 + len(results),
		SimSeconds:      baseT,
		SimEnergyJ:      baseE,
	}
	bestE := math.Inf(1)
	for i, res := range results {
		out := PolicyOutcome{
			Policy:      opt.Policies[i],
			TimeS:       res.Time,
			EnergyJ:     res.Energy.Total(),
			TimeDelta:   res.Time/baseT - 1,
			EnergyDelta: res.Energy.Total()/baseE - 1,
			Schedule:    schedules[i](),
		}
		adv.Policies = append(adv.Policies, out)
		adv.SimSeconds += res.Time
		adv.SimEnergyJ += out.EnergyJ
		if out.TimeDelta <= opt.MaxSlowdown && out.EnergyJ < bestE && out.EnergyJ < baseE {
			bestE = out.EnergyJ
			adv.Recommended = out.Policy
		}
	}
	return adv, nil
}
