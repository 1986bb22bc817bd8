package workload

import (
	"math"
	"testing"
	"testing/quick"

	"hybridperf/internal/core"
	"hybridperf/internal/des"
	"hybridperf/internal/machine"
	"hybridperf/internal/mpi"
	"hybridperf/internal/node"
	"hybridperf/internal/omp"
	"hybridperf/internal/simnet"
)

func TestBuiltinProgramsValid(t *testing.T) {
	progs := Programs()
	if len(progs) != 5 {
		t.Fatalf("got %d programs, want the paper's 5", len(progs))
	}
	want := []string{"LU", "SP", "BT", "CP", "LB"}
	for i, s := range progs {
		if s.Name != want[i] {
			t.Errorf("program %d = %s, want %s (Table 2 order)", i, s.Name, want[i])
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s invalid: %v", s.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"LU", "SP", "BT", "CP", "LB"} {
		s, err := ByName(name)
		if err != nil || s.Name != name {
			t.Errorf("ByName(%s) = %v, %v", name, s, err)
		}
	}
	if s, err := ByName("FT"); err != nil || s.AlltoallVolume == 0 {
		t.Errorf("ByName(FT) = %v, %v (extension program should resolve)", s, err)
	}
	if _, err := ByName("MG"); err == nil {
		t.Error("unknown program accepted")
	}
}

func TestLanguageDiversity(t *testing.T) {
	// The paper stresses language independence: four Fortran codes and
	// one C++ code.
	cpp := 0
	for _, s := range Programs() {
		if s.Lang == "C++" {
			cpp++
		}
	}
	if cpp != 1 {
		t.Fatalf("%d C++ programs, want exactly 1 (LB)", cpp)
	}
}

func TestIterationsScaleByClass(t *testing.T) {
	s := LU()
	itS, _ := s.Iterations(ClassS)
	itA, _ := s.Iterations(ClassA)
	itC, _ := s.Iterations(ClassC)
	if itA != 4*itS {
		t.Errorf("class A = %d, want 4x class S (%d)", itA, itS)
	}
	if itC != 16*itS {
		t.Errorf("class C = %d, want 16x class S (%d)", itC, itS)
	}
	if _, err := s.Iterations(Class("Z")); err == nil {
		t.Error("unknown class accepted")
	}
	itT, _ := s.Iterations(ClassTest)
	if itT < 2 || itT >= itS {
		t.Errorf("test class iterations = %d", itT)
	}
}

func TestHaloBytesShrinkWithNodes(t *testing.T) {
	s := SP()
	prev := math.Inf(1)
	for _, n := range []int{2, 4, 8, 16, 64} {
		hb := s.HaloBytes(n)
		if hb >= prev {
			t.Fatalf("halo bytes not decreasing at n=%d: %g >= %g", n, hb, prev)
		}
		prev = hb
	}
	if s.HaloBytes(1) != 0 {
		t.Error("single-node halo should be 0")
	}
	if got := s.HaloBytes(2); got != s.HaloBytesN2 {
		t.Errorf("HaloBytes(2) = %g, want the calibration volume %g", got, s.HaloBytesN2)
	}
}

func TestMsgClassesComposition(t *testing.T) {
	// LB has halo + barrier; CP has collective only; LU halo only.
	lb := LB()
	classes := lb.MsgClasses(8)
	if len(classes) != 2 {
		t.Fatalf("LB at n=8 has %d message classes, want 2 (halo + barrier)", len(classes))
	}
	if classes[0].Count != lb.HaloMsgs {
		t.Errorf("halo count %d", classes[0].Count)
	}
	if classes[1].Count != mpi.ReduceRounds(8) || classes[1].Bytes != 8 {
		t.Errorf("barrier class %+v", classes[1])
	}
	cp := CP()
	ccl := cp.MsgClasses(8)
	if len(ccl) != 1 || ccl[0].Count != mpi.ReduceRounds(8) || ccl[0].Bytes != cp.CollectiveBytes {
		t.Errorf("CP classes %+v", ccl)
	}
	if MsgsAt := LU().MsgsPerIter(1); MsgsAt != 0 {
		t.Errorf("single-node MsgsPerIter = %d", MsgsAt)
	}
}

func TestMeanMsgBytesWeighted(t *testing.T) {
	s := &Spec{
		Name: "X", WorkPerIter: 1, BaseIters: 2,
		HaloMsgs: 2, HaloBytesN2: 1000, HaloExp: 0,
		CollectiveBytes: 4000, OverlapPoint: 0.5,
	}
	// At n=2: 2 halo msgs of 1000 B + 1 reduce round of 4000 B.
	want := (2*1000.0 + 1*4000.0) / 3
	if got := s.MeanMsgBytes(2); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MeanMsgBytes = %g, want %g", got, want)
	}
	if got := s.MeanMsgBytes(1); got != 0 {
		t.Fatalf("single-node nu = %g", got)
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	mutations := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.WorkPerIter = 0 },
		func(s *Spec) { s.BFrac = -1 },
		func(s *Spec) { s.MemBytesPerWork = -1 },
		func(s *Spec) { s.BaseIters = 0 },
		func(s *Spec) { s.HaloMsgs = -1 },
		func(s *Spec) { s.OverlapPoint = 1.5 },
	}
	for i, mutate := range mutations {
		s := SP()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestSynthetic(t *testing.T) {
	s := Synthetic("syn", 1e9, 0.5, 10, 2, 1e5)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Name != "syn" || s.BaseIters != 10 {
		t.Fatalf("synthetic spec %+v", s)
	}
}

// runProgram executes a spec on a tiny simulated cluster and returns the
// world for inspection.
func runProgram(t *testing.T, s *Spec, n, c int) (*mpi.World, []*node.Node, float64) {
	t.Helper()
	prof := machine.XeonE5()
	k := des.NewKernel()
	sw := simnet.NewSwitch(k, prof)
	var nodes []*node.Node
	for i := 0; i < n; i++ {
		nodes = append(nodes, node.New(k, prof, i, c, prof.FMax(), nil))
	}
	world := mpi.NewWorld(k, sw, nodes)
	for i := 0; i < n; i++ {
		env := &Env{Rank: world.Rank(i), Team: omp.NewTeam(k, nodes[i]), Class: ClassTest}
		m, err := s.Machine(env)
		if err != nil {
			t.Fatal(err)
		}
		k.Spawn("rank", m)
	}
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	return world, nodes, k.Now()
}

func TestRunMessageCountsMatchLaw(t *testing.T) {
	for _, tc := range []struct {
		spec *Spec
		n    int
	}{
		{LU(), 2}, {SP(), 4}, {BT(), 3}, {CP(), 4}, {LB(), 4},
	} {
		world, _, _ := runProgram(t, tc.spec, tc.n, 2)
		iters, _ := tc.spec.Iterations(ClassTest)
		wantPerRank := float64(tc.spec.MsgsPerIter(tc.n) * iters)
		prof := world.Profile()
		if math.Abs(prof.MsgsPerRank-wantPerRank) > 1e-9 {
			t.Errorf("%s n=%d: eta = %g msgs/rank, law predicts %g",
				tc.spec.Name, tc.n, prof.MsgsPerRank, wantPerRank)
		}
		wantNu := tc.spec.MeanMsgBytes(tc.n)
		if math.Abs(prof.BytesPerMsg-wantNu)/wantNu > 1e-9 {
			t.Errorf("%s n=%d: nu = %g, law predicts %g", tc.spec.Name, tc.n, prof.BytesPerMsg, wantNu)
		}
	}
}

func TestRunSingleNodeNoMessages(t *testing.T) {
	world, _, _ := runProgram(t, SP(), 1, 4)
	if world.Profile().TotalMsgs != 0 {
		t.Fatal("single-node run sent MPI messages")
	}
}

func TestRunWorkConservation(t *testing.T) {
	// Total work cycles are independent of the partitioning (jitter off).
	work := func(n, c int) float64 {
		_, nodes, elapsed := runProgram(t, LU(), n, c)
		var w float64
		for _, nd := range nodes {
			w += nd.Totals(elapsed).WorkCycles
		}
		return w
	}
	w11, w24 := work(1, 1), work(2, 4)
	if math.Abs(w11-w24)/w11 > 1e-9 {
		t.Fatalf("work cycles differ across partitionings: %g vs %g", w11, w24)
	}
}

func TestRunSyncOverheadGrowsWork(t *testing.T) {
	// LB's model-invisible sync overhead adds instructions at n>1.
	perCoreWork := func(s *Spec, n int) float64 {
		_, nodes, elapsed := runProgram(t, s, n, 2)
		var w float64
		for _, nd := range nodes {
			w += nd.Totals(elapsed).WorkCycles
		}
		return w
	}
	base, scaled := perCoreWork(LB(), 1), perCoreWork(LB(), 4)
	if scaled <= base*1.01 {
		t.Fatalf("LB work at n=4 (%g) should exceed n=1 (%g) by sync overhead", scaled, base)
	}
	// The solvers have none.
	lu1, lu4 := perCoreWork(LU(), 1), perCoreWork(LU(), 4)
	if math.Abs(lu1-lu4)/lu1 > 1e-9 {
		t.Fatalf("LU work should be conserved: %g vs %g", lu1, lu4)
	}
}

func TestRunMoreCoresFaster(t *testing.T) {
	_, _, t1 := runProgram(t, BT(), 1, 1)
	_, _, t8 := runProgram(t, BT(), 1, 8)
	if t8 >= t1 {
		t.Fatalf("8 cores (%g s) not faster than 1 (%g s)", t8, t1)
	}
	if t1/t8 < 3 {
		t.Fatalf("8-core speedup only %.1fx", t1/t8)
	}
}

func TestRunUnknownClassFails(t *testing.T) {
	prof := machine.XeonE5()
	k := des.NewKernel()
	sw := simnet.NewSwitch(k, prof)
	nd := node.New(k, prof, 0, 1, prof.FMax(), nil)
	world := mpi.NewWorld(k, sw, []*node.Node{nd})
	env := &Env{Rank: world.Rank(0), Team: omp.NewTeam(k, nd), Class: Class("bogus")}
	if _, err := SP().Machine(env); err == nil {
		t.Fatal("unknown class accepted by Machine")
	}
}

// Property: halo volume scaling law is monotone non-increasing in n for
// any exponent in [0, 1.5].
func TestHaloLawMonotoneProperty(t *testing.T) {
	f := func(expRaw, aRaw, bRaw uint8) bool {
		s := SP()
		s.HaloExp = float64(expRaw) / 255 * 1.5
		na := int(aRaw)%63 + 2
		nb := int(bRaw)%63 + 2
		if na > nb {
			na, nb = nb, na
		}
		return s.HaloBytes(na) >= s.HaloBytes(nb)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLawMatchesCoreHybridComm pins the workload decomposition law to the
// model-side core.HybridComm so the simulator and the analytical model can
// never drift apart silently.
func TestLawMatchesCoreHybridComm(t *testing.T) {
	for _, s := range Extended() {
		hc := core.HybridComm{
			HaloMsgs:        s.HaloMsgs,
			HaloBytes:       s.HaloBytesN2,
			HaloExp:         s.HaloExp,
			CollectiveBytes: s.CollectiveBytes,
			Barrier:         s.BarrierPerIter,
			AlltoallVolume:  s.AlltoallVolume,
		}
		for n := 1; n <= 64; n++ {
			want := s.MsgClasses(n)
			got := hc.Classes(n)
			if len(got) != len(want) {
				t.Fatalf("%s n=%d: %d classes vs %d", s.Name, n, len(got), len(want))
			}
			for i := range want {
				if got[i].Count != want[i].Count || got[i].Sync != want[i].Sync ||
					math.Abs(got[i].Bytes-want[i].Bytes) > 1e-9 {
					t.Fatalf("%s n=%d class %d: core %+v vs workload %+v",
						s.Name, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestExtendedAddsFT(t *testing.T) {
	ext := Extended()
	if len(ext) != 6 || ext[5].Name != "FT" {
		t.Fatalf("Extended() = %d programs, want the paper's 5 plus FT", len(ext))
	}
	if err := FT().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFTAlltoallCounts(t *testing.T) {
	ft := FT()
	for _, n := range []int{2, 4, 8} {
		classes := ft.MsgClasses(n)
		if len(classes) != 1 {
			t.Fatalf("FT n=%d: %d classes", n, len(classes))
		}
		if classes[0].Count != n-1 || !classes[0].Sync {
			t.Fatalf("FT n=%d class %+v, want n-1 sync messages", n, classes[0])
		}
		if got := classes[0].Bytes; math.Abs(got-ft.AlltoallVolume/float64(n)) > 1e-9 {
			t.Fatalf("FT n=%d message bytes %g", n, got)
		}
		// The simulated run must send exactly that.
		world, _, _ := runProgram(t, ft, n, 1)
		iters, _ := ft.Iterations(ClassTest)
		want := float64((n - 1) * iters)
		if got := world.Profile().MsgsPerRank; math.Abs(got-want) > 1e-9 {
			t.Fatalf("FT n=%d: eta = %g, want %g", n, got, want)
		}
	}
}
