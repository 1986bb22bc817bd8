package des_test

import (
	"math"
	"testing"

	"hybridperf/internal/des"
	"hybridperf/internal/des/destest"
)

// BenchmarkAdvance measures the per-event cost of a lone process stepping
// virtual time — the kernel's best case (empty queue ahead).
func BenchmarkAdvance(b *testing.B) {
	k := des.NewKernel()
	k.Spawn("ticker", destest.Script(destest.Repeat(b.N, destest.Advance(1))))
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(math.Inf(1)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHaltWake measures the immediate-dispatch path: two processes
// handing control back and forth at the same virtual instant, the pattern
// of condition broadcasts, barrier releases and resource hand-offs.
func BenchmarkHaltWake(b *testing.B) {
	k := des.NewKernel()
	var ping, pong *des.Proc
	wake := func(q **des.Proc) destest.Op { return destest.Do(func(*des.Proc) { (*q).Wake() }) }
	ping = k.Spawn("ping", destest.Script(
		destest.Halt(), // until pong is registered
		destest.Repeat(b.N, wake(&pong), destest.Halt()),
		wake(&pong),
	))
	pong = k.Spawn("pong", destest.Script(
		wake(&ping),
		destest.Halt(),
		destest.Repeat(b.N, wake(&ping), destest.Halt()),
	))
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(math.Inf(1)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkManyProcs measures heap-bound throughput: 256 concurrent
// processes with staggered delays keep the event queue deep, so every
// AdvanceArm pays the full priority-queue cost.
func BenchmarkManyProcs(b *testing.B) {
	const procs = 256
	k := des.NewKernel()
	perProc := b.N/procs + 1
	for i := 0; i < procs; i++ {
		d := 1 + float64(i)/procs // distinct periods keep the heap busy
		k.Spawn("p", destest.Script(destest.Repeat(perProc, destest.Advance(d))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(math.Inf(1)); err != nil {
		b.Fatal(err)
	}
}
