package node

import (
	"math"
	"testing"

	"hybridperf/internal/des"
	"hybridperf/internal/des/destest"
	"hybridperf/internal/machine"
	"hybridperf/internal/rng"
)

func run(t *testing.T, k *des.Kernel) {
	t.Helper()
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
}

// compute is a scripted compute burst on core.
func compute(nd *Node, core int, units, bFrac float64) destest.Op {
	var op ComputeOp
	return func(p *des.Proc) bool {
		op.Set(units, bFrac)
		return nd.ComputeStep(&op, p, core)
	}
}

// memAccess is a scripted memory burst on core.
func memAccess(nd *Node, core int, bytes float64) destest.Op {
	var op MemOp
	return func(p *des.Proc) bool {
		op.Set(bytes)
		return nd.MemStep(&op, p, core)
	}
}

func TestComputeAccountsCycles(t *testing.T) {
	prof := machine.XeonE5()
	k := des.NewKernel()
	nd := New(k, prof, 0, 1, 1.8e9, nil) // no jitter
	const units = 1.8e9                  // exactly 1 s of work cycles
	k.Spawn("c", destest.Script(compute(nd, 0, units, 0.1)))
	run(t, k)
	c := nd.Ctrs[0]
	if math.Abs(c.WorkTime-1) > 1e-9 {
		t.Errorf("WorkTime = %g, want 1", c.WorkTime)
	}
	wantB := 1.0 * 0.1 * prof.BaseStallFrac
	if math.Abs(c.BStallTime-wantB) > 1e-9 {
		t.Errorf("BStallTime = %g, want %g", c.BStallTime, wantB)
	}
	if c.Instructions != units {
		t.Errorf("Instructions = %g, want %g", c.Instructions, units)
	}
	if k.Now() != c.WorkTime+c.BStallTime {
		t.Errorf("elapsed %g != work+bstall %g", k.Now(), c.WorkTime+c.BStallTime)
	}
}

func TestComputeISAFactor(t *testing.T) {
	// The same work takes CyclesPerWork x longer per Hz on the ARM core.
	k := des.NewKernel()
	arm := machine.ARMCortexA9()
	nd := New(k, arm, 0, 1, 1.4e9, nil)
	k.Spawn("c", destest.Script(compute(nd, 0, 1.4e9, 0)))
	run(t, k)
	if got := nd.Ctrs[0].WorkTime; math.Abs(got-arm.CyclesPerWork) > 1e-9 {
		t.Fatalf("ARM WorkTime = %g, want %g", got, arm.CyclesPerWork)
	}
}

func TestComputeZeroUnitsNoop(t *testing.T) {
	k := des.NewKernel()
	nd := New(k, machine.XeonE5(), 0, 1, 1.2e9, nil)
	k.Spawn("c", destest.Script(compute(nd, 0, 0, 0.5), compute(nd, 0, -5, 0.5)))
	run(t, k)
	if k.Now() != 0 || nd.Ctrs[0].WorkTime != 0 {
		t.Fatal("zero/negative compute should be a no-op")
	}
}

func TestMemAccessSingleCore(t *testing.T) {
	prof := machine.XeonE5()
	k := des.NewKernel()
	nd := New(k, prof, 0, 1, 1.8e9, nil)
	bytes := 128e6
	k.Spawn("c", destest.Script(memAccess(nd, 0, bytes)))
	run(t, k)
	// Single core, no contention: stall = private + shared = bytes/coreBW + lat.
	want := bytes/prof.MemCoreBandwidth + prof.MemFixedLat
	if got := nd.Ctrs[0].MemStallTime; math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("MemStallTime = %g, want %g", got, want)
	}
}

func TestMemContentionGrowsWithCores(t *testing.T) {
	prof := machine.XeonE5()
	stall := func(cores int) float64 {
		k := des.NewKernel()
		nd := New(k, prof, 0, cores, 1.8e9, nil)
		perCore := 512e6
		for i := 0; i < cores; i++ {
			k.Spawn("c", destest.Script(memAccess(nd, i, perCore)))
		}
		run(t, k)
		var total float64
		for _, c := range nd.Ctrs {
			total += c.MemStallTime
		}
		return total / float64(cores) // mean per-core stall for equal traffic
	}
	if s1, s8 := stall(1), stall(8); s8 <= s1*1.5 {
		t.Fatalf("per-core stall with 8 cores %g should exceed single-core %g by contention", s8, s1)
	}
}

func TestMemStatsExposed(t *testing.T) {
	k := des.NewKernel()
	nd := New(k, machine.XeonE5(), 0, 2, 1.8e9, nil)
	for i := 0; i < 2; i++ {
		k.Spawn("c", destest.Script(memAccess(nd, i, 64e6)))
	}
	run(t, k)
	if s := nd.MemStats(); s.Served != 2 {
		t.Fatalf("controller served %d, want 2", s.Served)
	}
}

func TestEnergyIdleOnly(t *testing.T) {
	prof := machine.XeonE5()
	k := des.NewKernel()
	nd := New(k, prof, 0, 1, 1.2e9, nil)
	k.Spawn("c", destest.Script(destest.Advance(10)))
	run(t, k)
	e := nd.Energy()
	if math.Abs(e.Idle-prof.PSysIdle*10) > 1e-9 {
		t.Fatalf("Idle energy = %g, want %g", e.Idle, prof.PSysIdle*10)
	}
	if e.CPU != 0 || e.Mem != 0 || e.Net != 0 {
		t.Fatalf("idle run has active energy: %+v", e)
	}
}

func TestEnergyActiveCompute(t *testing.T) {
	prof := machine.XeonE5()
	k := des.NewKernel()
	f := 1.8e9
	nd := New(k, prof, 0, 1, f, nil)
	k.Spawn("c", destest.Script(compute(nd, 0, f*2, 0))) // 2 s active
	run(t, k)
	e := nd.Energy()
	want := prof.PCoreAct.At(f) * 2
	if math.Abs(e.CPU-want)/want > 1e-9 {
		t.Fatalf("CPU energy = %g, want %g", e.CPU, want)
	}
}

func TestEnergyStallIncludesMemPower(t *testing.T) {
	prof := machine.XeonE5()
	k := des.NewKernel()
	nd := New(k, prof, 0, 1, 1.8e9, nil)
	k.Spawn("c", destest.Script(memAccess(nd, 0, 256e6)))
	run(t, k)
	e := nd.Energy()
	elapsed := k.Now()
	wantCPU := prof.PCoreStall(1.8e9) * elapsed
	if math.Abs(e.CPU-wantCPU)/wantCPU > 1e-9 {
		t.Fatalf("stall CPU energy = %g, want %g", e.CPU, wantCPU)
	}
	wantMem := prof.PMem * elapsed
	if math.Abs(e.Mem-wantMem)/wantMem > 1e-9 {
		t.Fatalf("Mem energy = %g, want %g", e.Mem, wantMem)
	}
}

func TestEnergyNetRef(t *testing.T) {
	prof := machine.ARMCortexA9()
	k := des.NewKernel()
	nd := New(k, prof, 0, 1, 1.4e9, nil)
	netRef := func(d int) destest.Op { return destest.Do(func(*des.Proc) { nd.NetRef(d) }) }
	k.Spawn("c", destest.Script(
		netRef(1),
		destest.Advance(3),
		netRef(1), // overlapping activity should not double-bill
		destest.Advance(2),
		netRef(-1),
		netRef(-1),
		destest.Advance(5),
	))
	run(t, k)
	e := nd.Energy()
	want := prof.PNet * 5 // active from t=0 to t=5 only
	if math.Abs(e.Net-want)/want > 1e-9 {
		t.Fatalf("Net energy = %g, want %g", e.Net, want)
	}
}

func TestNegativeNetRefPanics(t *testing.T) {
	k := des.NewKernel()
	nd := New(k, machine.XeonE5(), 0, 1, 1.2e9, nil)
	k.Spawn("c", destest.Script(destest.Do(func(*des.Proc) { nd.NetRef(-1) })))
	if err := k.Run(math.Inf(1)); err == nil {
		t.Fatal("negative NIC refcount did not fail the run")
	}
}

func TestJitterPerturbsDeterministically(t *testing.T) {
	prof := machine.XeonE5()
	elapsed := func(seed int64) float64 {
		k := des.NewKernel()
		nd := New(k, prof, 0, 1, 1.8e9, rng.New(seed))
		k.Spawn("c", destest.Script(destest.Repeat(20, compute(nd, 0, 1.8e8, 0))))
		run(t, k)
		return k.Now()
	}
	a, b, c := elapsed(1), elapsed(1), elapsed(2)
	if a != b {
		t.Fatal("same seed produced different elapsed time")
	}
	if a == c {
		t.Fatal("different seeds produced identical jitter")
	}
	if math.Abs(a-2)/2 > 0.2 {
		t.Fatalf("jittered elapsed %g too far from nominal 2 s", a)
	}
}

func TestNewValidatesArgs(t *testing.T) {
	prof := machine.XeonE5()
	k := des.NewKernel()
	for _, fn := range []func(){
		func() { New(k, prof, 0, 0, 1.2e9, nil) },
		func() { New(k, prof, 0, 9, 1.2e9, nil) },
		func() { New(k, prof, 0, 1, 9.9e9, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid node parameters did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestNetWaitCountsIdle(t *testing.T) {
	prof := machine.XeonE5()
	k := des.NewKernel()
	nd := New(k, prof, 0, 1, 1.8e9, nil)
	var start float64
	k.Spawn("c", destest.Script(
		destest.Do(func(*des.Proc) { start = nd.NetWaitBegin(0) }),
		destest.Advance(4),
		destest.Do(func(*des.Proc) { nd.NetWaitEnd(0, start) }),
	))
	run(t, k)
	if got := nd.Ctrs[0].NetWaitTime; math.Abs(got-4) > 1e-9 {
		t.Fatalf("NetWaitTime = %g, want 4", got)
	}
	// Network waiting is idle: only system idle power is drawn.
	if e := nd.Energy(); e.CPU != 0 {
		t.Fatalf("net wait drew CPU power: %+v", e)
	}
}

func TestTotalsAggregation(t *testing.T) {
	prof := machine.XeonE5()
	k := des.NewKernel()
	f := 1.2e9
	nd := New(k, prof, 0, 2, f, nil)
	k.Spawn("a", destest.Script(compute(nd, 0, f, 0)))
	k.Spawn("b", destest.Script(compute(nd, 1, f, 0)))
	run(t, k)
	tot := nd.Totals(k.Now())
	if math.Abs(tot.WorkCycles-2*f) > 1 {
		t.Fatalf("WorkCycles = %g, want %g", tot.WorkCycles, 2*f)
	}
	if tot.Cores != 2 {
		t.Fatalf("Cores = %d", tot.Cores)
	}
	if u := tot.Utilization(); math.Abs(u-1) > 1e-9 {
		t.Fatalf("Utilization = %g, want 1", u)
	}
}
