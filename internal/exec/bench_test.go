package exec

import (
	"testing"

	"hybridperf/internal/dvfs"
	"hybridperf/internal/machine"
	"hybridperf/internal/workload"
)

// BenchmarkRun measures one validation-size direct measurement (SP at the
// characterisation class on the largest validation configuration) — the
// unit of work every experiment artifact and sweep repeats thousands of
// times. ns/op and allocs/op for this fixture are gated in CI against the
// exec_BenchmarkRunSequential_SP_classS_8x8 key of BENCH_3.json.
func BenchmarkRun(b *testing.B) {
	req := runFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunGoverned is the BenchmarkRun fixture under the
// phase-predictive DVFS governor with rank 0's schedule recorded — the
// per-iteration unit of work behind every /v1/advise policy evaluation.
// The gap to BenchmarkRun is the all-in price of the governed path:
// the ObservePhases counter-delta hook, the EWMA frequency decision and
// the transition recording. Gated in CI against BENCH_5.json.
func BenchmarkRunGoverned(b *testing.B) {
	prof := machine.XeonE5()
	cfg := machine.Config{Nodes: 8, Cores: 8, Freq: 1.8e9}
	var levels []float64
	for _, f := range prof.Frequencies {
		if f <= cfg.Freq {
			levels = append(levels, f)
		}
	}
	req := Request{
		Prof:  prof,
		Spec:  workload.SP(),
		Class: workload.ClassS,
		Cfg:   cfg,
		Seed:  1,
		Governor: func(rank int) dvfs.Governor {
			g, err := dvfs.NewPhasePredictive(levels, 0, dvfs.PhaseSample{}, 0.05)
			if err != nil {
				b.Fatal(err)
			}
			if rank == 0 {
				return &dvfs.ScheduleRecorder{G: g}
			}
			return g
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep measures a small validation sweep (one point per node
// count) through the concurrent sweep engine with 8 workers; gated in CI
// against the exec_BenchmarkSweepSequential_4cfg key of BENCH_3.json.
func BenchmarkSweep(b *testing.B) {
	var reqs []Request
	for _, nodes := range []int{1, 2, 4, 8} {
		reqs = append(reqs, Request{
			Prof:  machine.XeonE5(),
			Spec:  workload.SP(),
			Class: workload.ClassS,
			Cfg:   machine.Config{Nodes: nodes, Cores: 8, Freq: 1.8e9},
			Seed:  int64(nodes),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(reqs, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// runFixture is the BenchmarkRun request: NPB SP, class S, on 8 Xeon
// nodes x 8 cores at 1.8 GHz, seed 1.
func runFixture() Request {
	return Request{
		Prof:  machine.XeonE5(),
		Spec:  workload.SP(),
		Class: workload.ClassS,
		Cfg:   machine.Config{Nodes: 8, Cores: 8, Freq: 1.8e9},
		Seed:  1,
	}
}
