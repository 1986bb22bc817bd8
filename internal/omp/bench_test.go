package omp

import (
	"math"
	"testing"

	"hybridperf/internal/des"
	"hybridperf/internal/des/destest"
)

// BenchmarkParallelRegion measures the fork-join cost of one 8-thread
// parallel region including a small compute burst per thread — the region
// rate is what bounds simulated iterations per second.
func BenchmarkParallelRegion(b *testing.B) {
	k := des.NewKernel()
	tm := team(k, 8)
	f := tm.Node().Freq()
	k.Spawn("master", destest.Script(destest.Repeat(b.N,
		parallel(tm, func(tid int) destest.Op { return compute(tm, tid, f*1e-6*float64(tid+1)) }),
	)))
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(math.Inf(1)); err != nil {
		b.Fatal(err)
	}
}
