package exec

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"hybridperf/internal/dvfs"
	"hybridperf/internal/machine"
	"hybridperf/internal/trace"
	"hybridperf/internal/workload"
)

func xeonReq(cfg machine.Config) Request {
	return Request{
		Prof:  machine.XeonE5(),
		Spec:  workload.SP(),
		Class: workload.ClassTest,
		Cfg:   cfg,
		Seed:  11,
	}
}

func TestRunDeterministic(t *testing.T) {
	req := xeonReq(machine.Config{Nodes: 2, Cores: 4, Freq: 1.8e9})
	a, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.MeasuredEnergy != b.MeasuredEnergy {
		t.Fatalf("same seed differs: T %g vs %g, E %g vs %g", a.Time, b.Time, a.MeasuredEnergy, b.MeasuredEnergy)
	}
	if a.Totals != b.Totals {
		t.Fatal("counters differ across identical runs")
	}
}

func TestRunSeedVariation(t *testing.T) {
	req := xeonReq(machine.Config{Nodes: 1, Cores: 2, Freq: 1.8e9})
	a, _ := Run(req)
	req.Seed = 12
	b, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time == b.Time {
		t.Fatal("different seeds gave bit-identical times (jitter inactive?)")
	}
	// But within OS-noise range of each other.
	if math.Abs(a.Time-b.Time)/a.Time > 0.10 {
		t.Fatalf("run-to-run variation %g vs %g exceeds 10%%", a.Time, b.Time)
	}
}

func TestRunNoJitterExactlyRepeatable(t *testing.T) {
	req := xeonReq(machine.Config{Nodes: 1, Cores: 1, Freq: 1.2e9})
	req.NoJitter = true
	req.NoMeterNoise = true
	a, _ := Run(req)
	req.Seed = 999 // seed must not matter without noise sources
	b, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.MeasuredEnergy != b.MeasuredEnergy {
		t.Fatal("noise-free runs depend on seed")
	}
	if a.MeasuredEnergy != a.Energy.Total() {
		t.Fatal("NoMeterNoise reading differs from integrated energy")
	}
}

func TestScalingDirections(t *testing.T) {
	base, err := Run(xeonReq(machine.Config{Nodes: 1, Cores: 1, Freq: 1.2e9}))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(xeonReq(machine.Config{Nodes: 1, Cores: 1, Freq: 1.8e9}))
	if err != nil {
		t.Fatal(err)
	}
	if fast.Time >= base.Time {
		t.Fatalf("higher frequency not faster: %g vs %g", fast.Time, base.Time)
	}
	wide, err := Run(xeonReq(machine.Config{Nodes: 1, Cores: 8, Freq: 1.2e9}))
	if err != nil {
		t.Fatal(err)
	}
	if wide.Time >= base.Time/3 {
		t.Fatalf("8 cores speedup too low: %g vs %g", wide.Time, base.Time)
	}
	multi, err := Run(xeonReq(machine.Config{Nodes: 4, Cores: 1, Freq: 1.2e9}))
	if err != nil {
		t.Fatal(err)
	}
	if multi.Time >= base.Time/2 {
		t.Fatalf("4 nodes speedup too low: %g vs %g", multi.Time, base.Time)
	}
}

func TestEnergyBreakdownConsistent(t *testing.T) {
	res, err := Run(xeonReq(machine.Config{Nodes: 2, Cores: 2, Freq: 1.5e9}))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, e := range res.PerNode {
		sum += e.Total()
	}
	if math.Abs(sum-res.Energy.Total())/sum > 1e-9 {
		t.Fatalf("per-node energies %g != cluster total %g", sum, res.Energy.Total())
	}
	if res.Energy.Idle <= 0 || res.Energy.CPU <= 0 {
		t.Fatalf("missing energy components: %+v", res.Energy)
	}
	if len(res.PerNode) != 2 {
		t.Fatalf("PerNode has %d entries", len(res.PerNode))
	}
}

func TestCountersScaleWithClass(t *testing.T) {
	reqS := xeonReq(machine.Config{Nodes: 1, Cores: 2, Freq: 1.8e9})
	reqS.Class = workload.ClassS
	reqS.NoJitter = true
	s, err := Run(reqS)
	if err != nil {
		t.Fatal(err)
	}
	reqA := reqS
	reqA.Class = workload.ClassA
	a, err := Run(reqA)
	if err != nil {
		t.Fatal(err)
	}
	itS, _ := workload.SP().Iterations(workload.ClassS)
	itA, _ := workload.SP().Iterations(workload.ClassA)
	wantRatio := float64(itA) / float64(itS)
	gotRatio := a.Totals.WorkCycles / s.Totals.WorkCycles
	if math.Abs(gotRatio-wantRatio)/wantRatio > 0.01 {
		t.Fatalf("work cycles scaled %gx, want %gx (the model's S/Ss assumption)", gotRatio, wantRatio)
	}
}

func TestMeterNoiseBounded(t *testing.T) {
	req := xeonReq(machine.Config{Nodes: 1, Cores: 4, Freq: 1.8e9})
	res, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	exact := res.Energy.Total()
	// Noise is ~N(0, 2W) x T per node; 6 sigma bound.
	bound := 6 * machine.XeonE5().MeterNoiseW * res.Time
	if math.Abs(res.MeasuredEnergy-exact) > bound {
		t.Fatalf("metered %g vs exact %g differs beyond noise bound %g", res.MeasuredEnergy, exact, bound)
	}
	if res.MeasuredEnergy == exact {
		t.Fatal("meter noise had no effect")
	}
}

func TestUtilizationRange(t *testing.T) {
	res, err := Run(xeonReq(machine.Config{Nodes: 2, Cores: 4, Freq: 1.8e9}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization = %g", res.Utilization)
	}
}

func TestRunRejectsInvalidRequests(t *testing.T) {
	bad := []Request{
		{Prof: machine.XeonE5(), Spec: workload.SP(), Class: workload.ClassTest,
			Cfg: machine.Config{Nodes: 99, Cores: 1, Freq: 1.2e9}}, // too many nodes
		{Prof: machine.XeonE5(), Spec: workload.SP(), Class: workload.ClassTest,
			Cfg: machine.Config{Nodes: 1, Cores: 1, Freq: 1.0e9}}, // bad DVFS level
		{Prof: machine.XeonE5(), Spec: workload.SP(), Class: workload.Class("nope"),
			Cfg: machine.Config{Nodes: 1, Cores: 1, Freq: 1.2e9}}, // bad class
	}
	for i, req := range bad {
		if _, err := Run(req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
}

func TestSweepPreservesOrder(t *testing.T) {
	var reqs []Request
	var freqs []float64
	for _, f := range machine.XeonE5().Frequencies {
		reqs = append(reqs, xeonReq(machine.Config{Nodes: 1, Cores: 1, Freq: f}))
		freqs = append(freqs, f)
	}
	results, err := Sweep(reqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Cfg.Freq != freqs[i] {
			t.Fatalf("result %d is for %g Hz, want %g", i, res.Cfg.Freq, freqs[i])
		}
	}
	// Higher frequency strictly faster on this compute-bound class.
	if !(results[0].Time > results[1].Time && results[1].Time > results[2].Time) {
		t.Fatalf("times %g %g %g not decreasing with frequency",
			results[0].Time, results[1].Time, results[2].Time)
	}
}

func TestSweepMatchesSequentialRuns(t *testing.T) {
	req := xeonReq(machine.Config{Nodes: 2, Cores: 2, Freq: 1.5e9})
	solo, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Sweep([]Request{req, req, req}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Time != solo.Time || res.MeasuredEnergy != solo.MeasuredEnergy {
			t.Fatal("concurrent sweep perturbed simulation results")
		}
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	good := xeonReq(machine.Config{Nodes: 1, Cores: 1, Freq: 1.2e9})
	bad := xeonReq(machine.Config{Nodes: 0, Cores: 1, Freq: 1.2e9})
	if _, err := Sweep([]Request{good, bad}, 2); err == nil {
		t.Fatal("sweep swallowed an error")
	}
}

func TestSweepReportsEveryFailure(t *testing.T) {
	good := xeonReq(machine.Config{Nodes: 1, Cores: 1, Freq: 1.2e9})
	badNodes := xeonReq(machine.Config{Nodes: 0, Cores: 1, Freq: 1.2e9})
	badFreq := xeonReq(machine.Config{Nodes: 1, Cores: 1, Freq: 1.0e9})
	_, err := Sweep([]Request{badNodes, good, badFreq}, 2)
	if err == nil {
		t.Fatal("sweep swallowed both errors")
	}
	msg := err.Error()
	for _, want := range []string{"request 0", "request 2"} {
		if !strings.Contains(msg, want) {
			t.Errorf("aggregate error omits %q: %v", want, err)
		}
	}
	if strings.Contains(msg, "request 1") {
		t.Errorf("aggregate error blames the good request: %v", err)
	}
}

// TestSweepRecoversPanics: a request that panics inside Run (here a nil
// profile dereference) must surface as that request's error — not kill the
// worker goroutine, crash the process, or deadlock the producer.
func TestSweepRecoversPanics(t *testing.T) {
	good := xeonReq(machine.Config{Nodes: 1, Cores: 1, Freq: 1.2e9})
	panicky := good
	panicky.Prof = nil
	// More panicking requests than workers: with a dead worker and an
	// unbuffered queue this would deadlock; it must terminate and blame
	// exactly the panicking indexes.
	_, err := Sweep([]Request{panicky, good, panicky, panicky, good}, 2)
	if err == nil {
		t.Fatal("sweep swallowed the panics")
	}
	msg := err.Error()
	if !strings.Contains(msg, "panicked") {
		t.Fatalf("error does not mention the panic: %v", err)
	}
	for _, want := range []string{"request 0", "request 2", "request 3"} {
		if !strings.Contains(msg, want) {
			t.Errorf("aggregate error omits %q: %v", want, err)
		}
	}
	for _, bad := range []string{"request 1", "request 4"} {
		if strings.Contains(msg, bad) {
			t.Errorf("aggregate error blames good %s: %v", bad, err)
		}
	}
	// Every request panicking, one worker: still terminates.
	if _, err := Sweep([]Request{panicky, panicky, panicky}, 1); err == nil {
		t.Fatal("all-panic sweep swallowed the failures")
	}
}

// TestResultReportsEngine: the engine stats block stamped on every
// result counts the dispatched events and the simulated processes — one
// master per rank, its c-1 pooled OpenMP workers, plus the message
// couriers — whether or not metrics were requested.
func TestResultReportsEngine(t *testing.T) {
	req := xeonReq(machine.Config{Nodes: 2, Cores: 2, Freq: 1.8e9})
	res, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.Events == 0 {
		t.Fatalf("Result.Engine reported no events: %+v", res.Engine)
	}
	if min := req.Cfg.Nodes * req.Cfg.Cores; res.Engine.Procs < min {
		t.Fatalf("Result.Engine.Procs = %d, want at least %d (ranks and workers)", res.Engine.Procs, min)
	}
	req.Metrics = true
	inst, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Engine != res.Engine || inst.Metrics.Engine.Events != res.Engine.Events {
		t.Fatalf("instrumented run reports %+v (metrics %d events), plain run %+v",
			inst.Engine, inst.Metrics.Engine.Events, res.Engine)
	}
}

func TestRunMetricsPopulated(t *testing.T) {
	req := xeonReq(machine.Config{Nodes: 2, Cores: 2, Freq: 1.8e9})
	req.Metrics = true
	res, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("Metrics request returned no metrics")
	}
	eng := res.Metrics.Engine
	if eng.Events != res.Engine.Events {
		t.Fatalf("metrics events %d != engine stats %d", eng.Events, res.Engine.Events)
	}
	if got := eng.SelfDispatches + eng.SchedulerDispatches; got != eng.Events {
		t.Fatalf("dispatch classes sum to %d, want %d", got, eng.Events)
	}
	if eng.Regions == 0 || eng.Messages == 0 || eng.HeapHighWater == 0 {
		t.Fatalf("runtime counters empty: %+v", eng)
	}
	if uint64(res.Comm.TotalMsgs) != eng.Messages {
		t.Fatalf("metrics saw %d messages, comm profile %d", eng.Messages, res.Comm.TotalMsgs)
	}
	if len(res.Metrics.Ranks) != 2 {
		t.Fatalf("%d rank phase records, want 2", len(res.Metrics.Ranks))
	}
	for _, ph := range res.Metrics.Ranks {
		if ph.Compute <= 0 || ph.MemStall <= 0 {
			t.Fatalf("rank %d phases empty: %+v", ph.Rank, ph)
		}
	}
	// Plain runs carry none.
	req.Metrics = false
	plain, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != nil {
		t.Fatal("uninstrumented run carries metrics")
	}
}

// Property: instrumentation observes without perturbing — metrics-on and
// metrics-off runs of the same request report bit-identical time/energy.
func TestMetricsDoNotPerturb(t *testing.T) {
	f := func(seed, n, c uint8) bool {
		req := xeonReq(machine.Config{
			Nodes: int(n%4) + 1, Cores: int(c%4) + 1, Freq: 1.8e9,
		})
		req.Seed = int64(seed)
		plain, err1 := Run(req)
		req.Metrics = true
		req.Trace = true
		inst, err2 := Run(req)
		if err1 != nil || err2 != nil {
			return false
		}
		return plain.Time == inst.Time &&
			plain.Energy == inst.Energy &&
			plain.MeasuredEnergy == inst.MeasuredEnergy &&
			plain.Totals == inst.Totals
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepMetricsAggregates(t *testing.T) {
	req := xeonReq(machine.Config{Nodes: 2, Cores: 2, Freq: 1.5e9})
	req.Metrics = true
	plain := req
	plain.Metrics = false
	results, err := Sweep([]Request{req, plain, req}, 2)
	if err != nil {
		t.Fatal(err)
	}
	agg, n := SweepMetrics(results)
	if n != 2 {
		t.Fatalf("%d instrumented results, want 2", n)
	}
	want := results[0].Metrics.Engine.Events + results[2].Metrics.Engine.Events
	if agg.Events != want {
		t.Fatalf("aggregate events %d, want %d", agg.Events, want)
	}
}

func TestCommProfilePresence(t *testing.T) {
	single, err := Run(xeonReq(machine.Config{Nodes: 1, Cores: 2, Freq: 1.8e9}))
	if err != nil {
		t.Fatal(err)
	}
	if single.Comm.TotalMsgs != 0 {
		t.Fatal("single-node run has MPI traffic")
	}
	multi, err := Run(xeonReq(machine.Config{Nodes: 4, Cores: 2, Freq: 1.8e9}))
	if err != nil {
		t.Fatal(err)
	}
	if multi.Comm.TotalMsgs == 0 {
		t.Fatal("multi-node run has no MPI traffic")
	}
	if multi.Comm.SwitchStats.Served != int64(multi.Comm.TotalMsgs) {
		t.Fatalf("switch served %d, mpi sent %d", multi.Comm.SwitchStats.Served, multi.Comm.TotalMsgs)
	}
}

func TestARMProfileRuns(t *testing.T) {
	res, err := Run(Request{
		Prof:  machine.ARMCortexA9(),
		Spec:  workload.LB(),
		Class: workload.ClassTest,
		Cfg:   machine.Config{Nodes: 2, Cores: 4, Freq: 1.4e9},
		Seed:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// LB on ARM is memory-bound: stall cycles should rival work cycles.
	if res.Totals.MemStallCycles < res.Totals.WorkCycles {
		t.Fatalf("ARM LB not memory-bound: m=%g w=%g", res.Totals.MemStallCycles, res.Totals.WorkCycles)
	}
}

func TestGovernorSavesEnergyOnCommBoundRun(t *testing.T) {
	// CP on the ARM cluster at 8 nodes is dominated by its allreduce:
	// plenty of inter-node slack for the DVFS governor to reclaim. The
	// governed run must use measurably less energy at a bounded slowdown.
	prof := machine.ARMCortexA9()
	base := Request{
		Prof:  prof,
		Spec:  workload.CP(),
		Class: workload.ClassTest,
		Cfg:   machine.Config{Nodes: 8, Cores: 4, Freq: prof.FMax()},
		Seed:  77,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	governed := base
	governed.Governor = func(rank int) dvfs.Governor {
		g, err := dvfs.NewInterNodeSlack(prof.Frequencies, 0.25, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	saved, err := Run(governed)
	if err != nil {
		t.Fatal(err)
	}
	if saved.Energy.CPU >= plain.Energy.CPU {
		t.Fatalf("governor did not cut CPU energy: %g vs %g", saved.Energy.CPU, plain.Energy.CPU)
	}
	if saved.Time > plain.Time*1.30 {
		t.Fatalf("governor slowed the run beyond 30%%: %g vs %g", saved.Time, plain.Time)
	}
	t.Logf("DVFS on ARM CP (8,4): T %.0f -> %.0f s (%+.1f%%), E %.2f -> %.2f kJ (%+.1f%%)",
		plain.Time, saved.Time, (saved.Time/plain.Time-1)*100,
		plain.Energy.Total()/1e3, saved.Energy.Total()/1e3,
		(saved.Energy.Total()/plain.Energy.Total()-1)*100)
}

func TestGovernorHarmlessOnComputeBoundRun(t *testing.T) {
	// A single-node run has no network slack; the governor must leave the
	// execution essentially untouched.
	prof := machine.XeonE5()
	base := Request{
		Prof:  prof,
		Spec:  workload.LU(),
		Class: workload.ClassTest,
		Cfg:   machine.Config{Nodes: 1, Cores: 4, Freq: prof.FMax()},
		Seed:  5,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	governed := base
	governed.Governor = func(rank int) dvfs.Governor {
		g, err := dvfs.NewInterNodeSlack(prof.Frequencies, 0.25, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	gov, err := Run(governed)
	if err != nil {
		t.Fatal(err)
	}
	if gov.Time != plain.Time {
		t.Fatalf("governor perturbed a slack-free run: %g vs %g", gov.Time, plain.Time)
	}
}

func TestTraceRecordsPhases(t *testing.T) {
	req := xeonReq(machine.Config{Nodes: 2, Cores: 2, Freq: 1.8e9})
	req.Trace = true
	res, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace events recorded")
	}
	iters, _ := workload.SP().Iterations(workload.ClassTest)
	// The engine records each master-thread burst: per rank per iteration,
	// at least one compute and one memory-stall event, at most the burst
	// cap (8) of each plus one network wait (zero-length phases drop).
	minWant := 2 * iters * 2
	maxWant := 2 * iters * (8 + 8 + 1)
	if len(res.Trace) < minWant || len(res.Trace) > maxWant {
		t.Fatalf("%d trace events, want in [%d, %d]", len(res.Trace), minWant, maxWant)
	}
	sum := trace.Summary(res.Trace)
	for rank := 0; rank < 2; rank++ {
		if sum[rank][trace.Compute] <= 0 {
			t.Fatalf("rank %d has no compute time", rank)
		}
		if sum[rank][trace.MemStall] <= 0 {
			t.Fatalf("rank %d has no memory-stall time", rank)
		}
		// Master-thread phases are sequential, so they cannot exceed the
		// makespan.
		total := sum[rank][trace.Compute] + sum[rank][trace.MemStall] + sum[rank][trace.Network]
		if total > res.Time*1.0001 {
			t.Fatalf("rank %d phases (%g) exceed the run time (%g)", rank, total, res.Time)
		}
	}
	// The reported measured UCR is exactly the trace-derived one and lies
	// in (0, 1] like any time fraction.
	if res.MeasuredUCR != trace.UCR(res.Trace) {
		t.Fatalf("MeasuredUCR %g != trace.UCR %g", res.MeasuredUCR, trace.UCR(res.Trace))
	}
	if res.MeasuredUCR <= 0 || res.MeasuredUCR > 1 {
		t.Fatalf("MeasuredUCR = %g, want in (0,1]", res.MeasuredUCR)
	}
	// Untraced runs carry no events.
	req.Trace = false
	plain, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("untraced run recorded events")
	}
	if plain.Time != res.Time {
		t.Fatal("tracing perturbed the simulation")
	}
}
