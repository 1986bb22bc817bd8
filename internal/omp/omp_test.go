package omp

import (
	"math"
	"sort"
	"testing"

	"hybridperf/internal/des"
	"hybridperf/internal/des/destest"
	"hybridperf/internal/machine"
	"hybridperf/internal/node"
)

func team(k *des.Kernel, cores int) *Team {
	prof := machine.XeonE5()
	return NewTeam(k, node.New(k, prof, 0, cores, prof.FMax(), nil))
}

func run(t *testing.T, k *des.Kernel) {
	t.Helper()
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
}

// opBody adapts a scripted op to a region body.
type opBody destest.Op

func (b opBody) Step(th *Thread) bool { return b(th.P) }

// parallel is a scripted parallel region: body(tid) builds thread tid's
// share, and the op completes once the region has joined.
func parallel(tm *Team, body func(tid int) destest.Op) destest.Op {
	mk := func(tid int) Body { return opBody(body(tid)) }
	joining := false
	return destest.Seq(
		destest.Do(func(p *des.Proc) { tm.RegionBegin(p, mk) }),
		body(0),
		func(p *des.Proc) bool { // the implicit barrier
			if joining {
				joining = false
				return true
			}
			if tm.RegionJoinArm(p) {
				return true
			}
			joining = true
			return false
		},
	)
}

// compute is a scripted compute burst on the thread's core.
func compute(tm *Team, tid int, units float64) destest.Op {
	var op node.ComputeOp
	return func(p *des.Proc) bool {
		op.Set(units, 0)
		return tm.Node().ComputeStep(&op, p, tid)
	}
}

func TestParallelRunsEveryThread(t *testing.T) {
	k := des.NewKernel()
	tm := team(k, 4)
	var tids []int
	k.Spawn("master", destest.Script(parallel(tm, func(tid int) destest.Op {
		return destest.Do(func(*des.Proc) { tids = append(tids, tid) })
	})))
	run(t, k)
	sort.Ints(tids)
	if len(tids) != 4 {
		t.Fatalf("ran %d threads, want 4", len(tids))
	}
	for i, tid := range tids {
		if tid != i {
			t.Fatalf("thread ids %v, want 0..3", tids)
		}
	}
}

func TestParallelImplicitBarrier(t *testing.T) {
	k := des.NewKernel()
	tm := team(k, 4)
	f := machine.XeonE5().FMax()
	var joined float64
	k.Spawn("master", destest.Script(
		parallel(tm, func(tid int) destest.Op {
			return compute(tm, tid, f*float64(tid+1)) // thread i computes i+1 seconds
		}),
		destest.Do(func(p *des.Proc) { joined = p.Now() }),
	))
	run(t, k)
	if math.Abs(joined-4) > 1e-9 {
		t.Fatalf("region joined at %g, want 4 (slowest thread)", joined)
	}
}

func TestMasterIsThreadZero(t *testing.T) {
	k := des.NewKernel()
	tm := team(k, 3)
	masterTid := -1
	var master *des.Proc
	master = k.Spawn("master", destest.Script(parallel(tm, func(tid int) destest.Op {
		return destest.Do(func(p *des.Proc) {
			if p == master {
				masterTid = tid
			}
		})
	})))
	run(t, k)
	if masterTid != 0 {
		t.Fatalf("master ran as tid %d, want 0", masterTid)
	}
}

func TestSingleThreadTeam(t *testing.T) {
	k := des.NewKernel()
	tm := team(k, 1)
	ran := 0
	k.Spawn("master", destest.Script(parallel(tm, func(int) destest.Op {
		return destest.Do(func(*des.Proc) { ran++ })
	})))
	run(t, k)
	if ran != 1 {
		t.Fatalf("single-thread region ran %d times", ran)
	}
}

func TestSuccessiveRegions(t *testing.T) {
	k := des.NewKernel()
	tm := team(k, 2)
	f := machine.XeonE5().FMax()
	var times []float64
	k.Spawn("master", destest.Script(destest.Repeat(3,
		parallel(tm, func(tid int) destest.Op { return compute(tm, tid, f) }),
		destest.Do(func(p *des.Proc) { times = append(times, p.Now()) }),
	)))
	run(t, k)
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(times[i]-want) > 1e-9 {
			t.Fatalf("region %d ended at %g, want %g", i, times[i], want)
		}
	}
}

func TestThreadsContendForMemory(t *testing.T) {
	k := des.NewKernel()
	tm := team(k, 8)
	k.Spawn("master", destest.Script(parallel(tm, func(tid int) destest.Op {
		var op node.MemOp
		return func(p *des.Proc) bool {
			op.Set(256e6)
			return tm.Node().MemStep(&op, p, tid)
		}
	})))
	run(t, k)
	var total float64
	for _, c := range tm.Node().Ctrs {
		total += c.MemStallTime
	}
	// Eight simultaneous bursts through one controller must stall, in
	// aggregate, well beyond eight uncontended accesses.
	prof := machine.XeonE5()
	uncontended := 8 * (256e6/prof.MemCoreBandwidth + prof.MemFixedLat)
	if total < uncontended*1.5 {
		t.Fatalf("aggregate stall %g shows no contention (uncontended %g)", total, uncontended)
	}
}

func TestTeamAccessors(t *testing.T) {
	k := des.NewKernel()
	tm := team(k, 5)
	if tm.Size() != 5 {
		t.Fatalf("Size = %d", tm.Size())
	}
	if tm.Node() == nil {
		t.Fatal("Node() nil")
	}
}

// TestWorkersPersistAcrossRegions checks the persistent pool: worker
// processes are spawned once on the first parallel region and then halted
// and rewoken, so the kernel's process count stays at master + (c-1)
// workers no matter how many regions run.
func TestWorkersPersistAcrossRegions(t *testing.T) {
	k := des.NewKernel()
	const cores, regions = 8, 50
	tm := team(k, cores)
	f := machine.XeonE5().FMax()
	ran := 0
	k.Spawn("master", destest.Script(destest.Repeat(regions,
		parallel(tm, func(tid int) destest.Op {
			return destest.Seq(compute(tm, tid, f/1e3), destest.Do(func(*des.Proc) {
				if tid == 0 {
					ran++
				}
			}))
		}),
	)))
	run(t, k)
	if ran != regions {
		t.Fatalf("ran %d regions, want %d", ran, regions)
	}
	if got := k.Procs(); got != cores { // master + (cores-1) workers
		t.Fatalf("kernel spawned %d processes over %d regions, want %d",
			got, regions, cores)
	}
}
