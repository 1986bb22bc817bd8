package mpi

import (
	"math"
	"testing"

	"hybridperf/internal/des"
	"hybridperf/internal/des/destest"
	"hybridperf/internal/machine"
	"hybridperf/internal/node"
	"hybridperf/internal/simnet"
)

// cluster builds an n-node single-core world at fmax on the Xeon profile.
func cluster(k *des.Kernel, n int) (*World, []*node.Node) {
	prof := machine.XeonE5()
	sw := simnet.NewSwitch(k, prof)
	var nodes []*node.Node
	for i := 0; i < n; i++ {
		nodes = append(nodes, node.New(k, prof, i, 1, prof.FMax(), nil))
	}
	return NewWorld(k, sw, nodes), nodes
}

func run(t *testing.T, k *des.Kernel) {
	t.Helper()
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
}

// Scripted forms of the rank operations.

func isend(r *Rank, to int, bytes float64, tag Tag) destest.Op {
	return destest.Do(func(*des.Proc) { r.Isend(to, bytes, tag) })
}

func waitCount(r *Rank, tag Tag, target int) destest.Op {
	var op WaitCountOp
	return func(p *des.Proc) bool {
		op.Tag, op.Target = tag, target
		return r.WaitCountStep(&op, p)
	}
}

func allreduce(r *Rank, bytes float64) destest.Op {
	op := AllreduceOp{Bytes: bytes}
	return func(p *des.Proc) bool { return r.AllreduceStep(&op, p) }
}

func alltoall(r *Rank, bytes float64) destest.Op {
	op := AlltoallOp{Bytes: bytes}
	return func(p *des.Proc) bool { return r.AlltoallStep(&op, p) }
}

// at records the current virtual time in *t.
func at(t *float64) destest.Op { return destest.Do(func(p *des.Proc) { *t = p.Now() }) }

func TestSendRecvDelivers(t *testing.T) {
	k := des.NewKernel()
	w, _ := cluster(k, 2)
	var recvAt float64
	k.Spawn("r0", destest.Script(isend(w.Rank(0), 1, 1<<20, TagHalo)))
	k.Spawn("r1", destest.Script(waitCount(w.Rank(1), TagHalo, 1), at(&recvAt)))
	run(t, k)
	want := machine.XeonE5().MsgServiceTime(1 << 20)
	if math.Abs(recvAt-want) > 1e-12 {
		t.Fatalf("delivery at %g, want %g", recvAt, want)
	}
}

func TestWaitCountAlreadySatisfied(t *testing.T) {
	k := des.NewKernel()
	w, _ := cluster(k, 2)
	var done float64
	k.Spawn("r0", destest.Script(isend(w.Rank(0), 1, 8, TagHalo)))
	k.Spawn("r1", destest.Script(
		destest.Advance(1), // message long since delivered
		waitCount(w.Rank(1), TagHalo, 1),
		at(&done),
	))
	run(t, k)
	if done != 1 {
		t.Errorf("WaitCount blocked until %g although the count was satisfied at 1", done)
	}
}

func TestSelfSendImmediate(t *testing.T) {
	k := des.NewKernel()
	w, _ := cluster(k, 1)
	done := -1.0
	r := w.Rank(0)
	k.Spawn("r0", destest.Script(isend(r, 0, 1<<20, TagHalo), waitCount(r, TagHalo, 1), at(&done)))
	run(t, k)
	if done != 0 {
		t.Errorf("self-send took %g s, want 0 (shared memory)", done)
	}
}

func TestIsendInvalidRankPanics(t *testing.T) {
	k := des.NewKernel()
	w, _ := cluster(k, 2)
	k.Spawn("r0", destest.Script(isend(w.Rank(0), 5, 8, TagHalo)))
	if err := k.Run(math.Inf(1)); err == nil {
		t.Fatal("Isend to invalid rank did not fail the run")
	}
}

func TestTagsAreIndependent(t *testing.T) {
	k := des.NewKernel()
	w, _ := cluster(k, 2)
	k.Spawn("r0", destest.Script(
		isend(w.Rank(0), 1, 8, TagReduce), // reduce traffic must not
		isend(w.Rank(0), 1, 8, TagHalo),   // satisfy a halo wait
	))
	k.Spawn("r1", destest.Script(
		waitCount(w.Rank(1), TagHalo, 1),
		destest.Do(func(*des.Proc) {
			if w.Rank(1).Received(TagHalo) != 1 {
				t.Error("halo count wrong")
			}
		}),
		waitCount(w.Rank(1), TagReduce, 1),
	))
	run(t, k)
}

func TestReduceRounds(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 20: 5, 256: 8}
	for n, want := range cases {
		if got := ReduceRounds(n); got != want {
			t.Errorf("ReduceRounds(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestAllreduceSynchronizesAllSizes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7, 8} {
		k := des.NewKernel()
		w, _ := cluster(k, n)
		finish := make([]float64, n)
		for i := 0; i < n; i++ {
			k.Spawn("r", destest.Script(
				destest.Advance(float64(i)*0.01), // skewed entry
				allreduce(w.Rank(i), 4096),
				at(&finish[i]),
			))
		}
		run(t, k)
		// Every rank must have sent and received rounds messages.
		rounds := ReduceRounds(n)
		for i := 0; i < n; i++ {
			if got := w.Rank(i).Received(TagReduce); got != rounds {
				t.Fatalf("n=%d rank %d received %d reduce messages, want %d", n, i, got, rounds)
			}
		}
		// No rank can finish before the slowest entrant.
		for i, f := range finish {
			if f < float64(n-1)*0.01 {
				t.Fatalf("n=%d rank %d finished at %g before the last entrant", n, i, f)
			}
		}
	}
}

func TestRepeatedAllreduces(t *testing.T) {
	const n, ops = 4, 5
	k := des.NewKernel()
	w, _ := cluster(k, n)
	for i := 0; i < n; i++ {
		k.Spawn("r", destest.Script(destest.Repeat(ops,
			destest.Advance(float64(i)*0.001),
			allreduce(w.Rank(i), 1024),
		)))
	}
	run(t, k)
	want := ops * ReduceRounds(n)
	for i := 0; i < n; i++ {
		if got := w.Rank(i).Received(TagReduce); got != want {
			t.Fatalf("rank %d received %d, want %d", i, got, want)
		}
	}
}

func TestBarrierAligns(t *testing.T) {
	const n = 4
	k := des.NewKernel()
	w, _ := cluster(k, n)
	after := make([]float64, n)
	for i := 0; i < n; i++ {
		k.Spawn("r", destest.Script(
			destest.Advance(float64(i)), // arrive at 0..3
			allreduce(w.Rank(i), 8),     // a barrier
			at(&after[i]),
		))
	}
	run(t, k)
	for i := 0; i < n; i++ {
		if after[i] < 3 {
			t.Fatalf("rank %d left the barrier at %g, before the last arrival", i, after[i])
		}
	}
}

func TestProfileAccounting(t *testing.T) {
	k := des.NewKernel()
	w, _ := cluster(k, 2)
	k.Spawn("r0", destest.Script(isend(w.Rank(0), 1, 1000, TagHalo), isend(w.Rank(0), 1, 3000, TagHalo)))
	k.Spawn("r1", destest.Script(waitCount(w.Rank(1), TagHalo, 2)))
	run(t, k)
	prof := w.Profile()
	if prof.TotalMsgs != 2 {
		t.Fatalf("TotalMsgs = %d", prof.TotalMsgs)
	}
	if prof.TotalBytes != 4000 {
		t.Fatalf("TotalBytes = %g", prof.TotalBytes)
	}
	if prof.BytesPerMsg != 2000 {
		t.Fatalf("BytesPerMsg = %g (nu)", prof.BytesPerMsg)
	}
	if prof.MsgsPerRank != 1 { // 2 msgs over 2 ranks
		t.Fatalf("MsgsPerRank = %g (eta)", prof.MsgsPerRank)
	}
	if prof.MeanWaitTime <= 0 {
		t.Fatalf("MeanWaitTime = %g, want > 0 (rank1 blocked)", prof.MeanWaitTime)
	}
}

func TestNICActivityDuringTransfer(t *testing.T) {
	k := des.NewKernel()
	w, nodes := cluster(k, 2)
	k.Spawn("r0", destest.Script(isend(w.Rank(0), 1, 8<<20, TagHalo), destest.Advance(100)))
	k.Spawn("r1", destest.Script(waitCount(w.Rank(1), TagHalo, 1)))
	run(t, k)
	transfer := machine.XeonE5().MsgServiceTime(8 << 20)
	e0 := nodes[0].Energy()
	want := machine.XeonE5().PNet * transfer
	if math.Abs(e0.Net-want)/want > 1e-6 {
		t.Fatalf("sender NIC energy = %g, want %g", e0.Net, want)
	}
	// Receiver was blocked waiting the whole transfer too.
	e1 := nodes[1].Energy()
	if e1.Net < want*0.99 {
		t.Fatalf("receiver NIC energy = %g, want >= %g", e1.Net, want)
	}
}

func TestWorldAccessors(t *testing.T) {
	k := des.NewKernel()
	w, nodes := cluster(k, 3)
	if w.Size() != 3 {
		t.Fatalf("Size = %d", w.Size())
	}
	r := w.Rank(2)
	if r.ID() != 2 || r.Node() != nodes[2] || r.World() != w {
		t.Fatal("rank accessors inconsistent")
	}
}

func TestSwitchSerializesConcurrentSenders(t *testing.T) {
	// All ranks send to rank 0 simultaneously; deliveries must be spaced
	// by the service time (single-server switch).
	const n = 5
	k := des.NewKernel()
	w, _ := cluster(k, n)
	for i := 1; i < n; i++ {
		k.Spawn("s", destest.Script(isend(w.Rank(i), 0, 1<<20, TagHalo)))
	}
	var last float64
	k.Spawn("r0", destest.Script(waitCount(w.Rank(0), TagHalo, n-1), at(&last)))
	run(t, k)
	svc := machine.XeonE5().MsgServiceTime(1 << 20)
	want := float64(n-1) * svc
	if math.Abs(last-want)/want > 1e-9 {
		t.Fatalf("last delivery at %g, want %g (serialized)", last, want)
	}
}

func TestAlltoallDeliversAll(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		k := des.NewKernel()
		w, _ := cluster(k, n)
		finish := make([]float64, n)
		for i := 0; i < n; i++ {
			k.Spawn("r", destest.Script(
				destest.Advance(float64(i)*0.01),
				alltoall(w.Rank(i), 1<<16),
				at(&finish[i]),
			))
		}
		run(t, k)
		for i := 0; i < n; i++ {
			if got := w.Rank(i).Received(TagAll2All); got != n-1 {
				t.Fatalf("n=%d rank %d received %d, want %d", n, i, got, n-1)
			}
			// Synchronising: nobody finishes before the last entrant has
			// at least posted its messages.
			if finish[i] < float64(n-1)*0.01 {
				t.Fatalf("n=%d rank %d finished at %g before last entrant", n, i, finish[i])
			}
		}
	}
}

func TestRepeatedAlltoalls(t *testing.T) {
	const n, ops = 4, 3
	k := des.NewKernel()
	w, _ := cluster(k, n)
	for i := 0; i < n; i++ {
		k.Spawn("r", destest.Script(destest.Repeat(ops,
			destest.Advance(float64(i)*0.002),
			alltoall(w.Rank(i), 4096),
		)))
	}
	run(t, k)
	for i := 0; i < n; i++ {
		if got := w.Rank(i).Received(TagAll2All); got != ops*(n-1) {
			t.Fatalf("rank %d received %d, want %d", i, got, ops*(n-1))
		}
	}
}

func TestAlltoallSingleRankNoop(t *testing.T) {
	k := des.NewKernel()
	w, _ := cluster(k, 1)
	done := -1.0
	k.Spawn("r", destest.Script(alltoall(w.Rank(0), 1<<20), at(&done)))
	run(t, k)
	if done != 0 {
		t.Error("single-rank alltoall advanced time")
	}
	if w.Profile().TotalMsgs != 0 {
		t.Fatal("single-rank alltoall sent messages")
	}
}
