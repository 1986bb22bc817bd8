package hybridperf

import (
	"math"
	"math/rand"
	"testing"
)

// charOpts keeps facade tests fast and deterministic.
var charOpts = &CharacterizeOptions{Seed: 99, Workers: 8}

func TestSystemAndProgramLookups(t *testing.T) {
	if XeonE5().Name != "xeon-e5-2603" || ARMCortexA9().Name != "arm-cortex-a9" {
		t.Fatal("built-in system names changed")
	}
	sys, err := SystemByName("arm")
	if err != nil || sys.Name != "arm-cortex-a9" {
		t.Fatalf("SystemByName(arm) = %v, %v", sys, err)
	}
	if _, err := SystemByName("sparc"); err == nil {
		t.Fatal("unknown system accepted")
	}
	if len(Programs()) != 5 {
		t.Fatal("want the paper's five programs")
	}
	p, err := ProgramByName("CP")
	if err != nil || p.Name != "CP" {
		t.Fatalf("ProgramByName(CP) = %v, %v", p, err)
	}
	if _, err := ProgramByName("MG"); err == nil {
		t.Fatal("unknown program accepted")
	}
	for _, prog := range []*Program{LU(), SP(), BT(), CP(), LB()} {
		if prog.Validate() != nil {
			t.Fatalf("%s invalid", prog.Name)
		}
	}
}

func TestCharacterizeAndPredict(t *testing.T) {
	model, err := Characterize(XeonE5(), LU(), charOpts)
	if err != nil {
		t.Fatal(err)
	}
	if model.System().Name != "xeon-e5-2603" || model.Program().Name != "LU" {
		t.Fatal("model accessors wrong")
	}
	pred, err := model.Predict(Config{Nodes: 4, Cores: 8, Freq: 1.8e9}, ClassA)
	if err != nil {
		t.Fatal(err)
	}
	if pred.T <= 0 || pred.E <= 0 || pred.UCR <= 0 || pred.UCR > 1 {
		t.Fatalf("degenerate prediction %+v", pred)
	}
	if _, err := model.Predict(Config{Nodes: 1, Cores: 1, Freq: 1.8e9}, Class("zz")); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestPredictMatchesSimulationWithin15Percent(t *testing.T) {
	model, err := Characterize(XeonE5(), BT(), charOpts)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		{Nodes: 1, Cores: 8, Freq: 1.8e9},
		{Nodes: 2, Cores: 4, Freq: 1.5e9},
		{Nodes: 8, Cores: 8, Freq: 1.8e9},
	}
	terr, eerr, err := model.Validate(cfgs, ClassA, 321)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("BT/Xeon: mean time error %.1f%%, energy %.1f%%", terr, eerr)
	if terr > 15 || eerr > 15 {
		t.Fatalf("facade validation errors %.1f%%/%.1f%% exceed 15%%", terr, eerr)
	}
}

// TestModelMatchesDESProperty is the paper's headline claim as a property
// over the served catalogue: for a seeded random sample of 32 (program,
// n, c, f) configurations per system, drawn from every catalogue program
// and the system's full node, core and DVFS ranges, the mean
// |model - DES| / DES of the class-A time and metered energy stays under
// the 15% of Table 2. The seed and sample size are fixed; a failure is a
// model or simulator regression, not a reason to redraw.
func TestModelMatchesDESProperty(t *testing.T) {
	const samples = 32
	rnd := rand.New(rand.NewSource(2015))
	progs := ExtendedPrograms()
	for _, sys := range []*System{XeonE5(), ARMCortexA9()} {
		models := map[string]*Model{}
		var sumT, sumE float64
		for i := 0; i < samples; i++ {
			prog := progs[rnd.Intn(len(progs))]
			cfg := Config{
				Nodes: 1 + rnd.Intn(sys.MaxNodes),
				Cores: 1 + rnd.Intn(sys.CoresPerNode),
				Freq:  sys.Frequencies[rnd.Intn(len(sys.Frequencies))],
			}
			seed := rnd.Int63()
			m, ok := models[prog.Name]
			if !ok {
				var err error
				if m, err = Characterize(sys, prog, charOpts); err != nil {
					t.Fatal(err)
				}
				models[prog.Name] = m
			}
			pred, err := m.Predict(cfg, ClassA)
			if err != nil {
				t.Fatalf("%s %s %v: %v", sys.Name, prog.Name, cfg, err)
			}
			meas, err := Simulate(sys, prog, ClassA, cfg, seed)
			if err != nil {
				t.Fatalf("%s %s %v: %v", sys.Name, prog.Name, cfg, err)
			}
			sumT += relErr(pred.T, meas.Time)
			sumE += relErr(pred.E, meas.MeasuredEnergy)
		}
		meanT, meanE := sumT/samples, sumE/samples
		t.Logf("%s: mean |model-DES|/DES over %d random configs: time %.1f%%, energy %.1f%%", sys.Name, samples, meanT, meanE)
		if meanT >= 15 || meanE >= 15 {
			t.Errorf("%s: mean errors time %.1f%% / energy %.1f%% not under the 15%% of Table 2", sys.Name, meanT, meanE)
		}
	}
}

func TestExploreAndQueries(t *testing.T) {
	model, err := Characterize(ARMCortexA9(), CP(), charOpts)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := model.Space([]int{1, 2, 4, 8})
	if len(cfgs) != 4*4*5 {
		t.Fatalf("space size %d, want 80", len(cfgs))
	}
	points, frontier, err := model.Explore(cfgs, ClassA)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(cfgs) || len(frontier) == 0 || len(frontier) >= len(points) {
		t.Fatalf("explore: %d points, %d frontier", len(points), len(frontier))
	}

	loosest := frontier[len(frontier)-1]
	p, ok, err := model.MinEnergyWithinDeadline(cfgs, ClassA, loosest.Pred.T*1.01)
	if err != nil || !ok {
		t.Fatalf("deadline query failed: %v %v", ok, err)
	}
	if p.Pred.E > loosest.Pred.E*1.0001 {
		t.Fatalf("deadline answer E=%g worse than frontier end %g", p.Pred.E, loosest.Pred.E)
	}
	_, ok, err = model.MinEnergyWithinDeadline(cfgs, ClassA, frontier[0].Pred.T/100)
	if err != nil || ok {
		t.Fatal("impossible deadline satisfied")
	}

	tightest := frontier[0]
	p, ok, err = model.MinTimeWithinBudget(cfgs, ClassA, tightest.Pred.E*2)
	if err != nil || !ok {
		t.Fatalf("budget query failed: %v %v", ok, err)
	}
	if p.Pred.T > tightest.Pred.T*2 {
		t.Fatalf("budget answer T=%g far above frontier start %g", p.Pred.T, tightest.Pred.T)
	}
}

func TestWhatIfHelpers(t *testing.T) {
	model, err := Characterize(XeonE5(), SP(), charOpts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Nodes: 1, Cores: 8, Freq: 1.8e9}
	base, err := model.Predict(cfg, ClassA)
	if err != nil {
		t.Fatal(err)
	}
	fasterMem, err := model.WithMemoryBandwidthScale(2).Predict(cfg, ClassA)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fasterMem.TMem-base.TMem/2)/base.TMem > 1e-9 {
		t.Fatalf("2x memory bandwidth: TMem %g, want %g", fasterMem.TMem, base.TMem/2)
	}
	if fasterMem.UCR <= base.UCR {
		t.Fatal("UCR did not improve with faster memory")
	}
	// The base model must be untouched.
	again, _ := model.Predict(cfg, ClassA)
	if again.TMem != base.TMem {
		t.Fatal("what-if helper mutated the base model")
	}

	cfg8 := Config{Nodes: 8, Cores: 8, Freq: 1.8e9}
	base8, _ := model.Predict(cfg8, ClassA)
	fasterNet, err := model.WithNetworkBandwidthScale(10).Predict(cfg8, ClassA)
	if err != nil {
		t.Fatal(err)
	}
	if fasterNet.TwNet+fasterNet.TsNet >= base8.TwNet+base8.TsNet {
		t.Fatal("faster network did not cut communication time")
	}
}

func TestSimulateDirect(t *testing.T) {
	res, err := Simulate(XeonE5(), SP(), ClassTest, Config{Nodes: 2, Cores: 2, Freq: 1.2e9}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.MeasuredEnergy <= 0 {
		t.Fatalf("degenerate measurement %+v", res)
	}
}

func TestNewModelFromInputs(t *testing.T) {
	m1, err := Characterize(XeonE5(), LU(), charOpts)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewModel(XeonE5(), LU(), m1.Core().Inputs())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Nodes: 2, Cores: 4, Freq: 1.5e9}
	a, _ := m1.Predict(cfg, ClassA)
	b, err := m2.Predict(cfg, ClassA)
	if err != nil {
		t.Fatal(err)
	}
	if a.T != b.T || a.E != b.E {
		t.Fatal("rehydrated model disagrees with the original")
	}
}

// TestValidateDeterministicAcrossWorkers pins Validate's contract: the
// per-configuration simulation seeds derive from the base seed and the
// configuration index, so the reported errors are independent of the
// worker count.
func TestValidateDeterministicAcrossWorkers(t *testing.T) {
	model, err := Characterize(XeonE5(), SP(), charOpts)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		{Nodes: 1, Cores: 4, Freq: 1.8e9},
		{Nodes: 2, Cores: 8, Freq: 1.5e9},
		{Nodes: 4, Cores: 2, Freq: 1.2e9},
		{Nodes: 8, Cores: 8, Freq: 1.8e9},
	}
	baseT, baseE, err := model.WithWorkers(1).Validate(cfgs, ClassA, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		terr, eerr, err := model.WithWorkers(workers).Validate(cfgs, ClassA, 7)
		if err != nil {
			t.Fatal(err)
		}
		if terr != baseT || eerr != baseE {
			t.Fatalf("workers=%d: errors %.6f%%/%.6f%% differ from serial %.6f%%/%.6f%%",
				workers, terr, eerr, baseT, baseE)
		}
	}
}

// TestPredictAllMatchesPredict checks the facade's batched sweep against
// one-at-a-time Predict calls.
func TestPredictAllMatchesPredict(t *testing.T) {
	model, err := Characterize(XeonE5(), SP(), charOpts)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := model.Space([]int{1, 2, 4, 8})
	preds, err := model.PredictAll(cfgs, ClassA)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(cfgs) {
		t.Fatalf("%d predictions for %d configurations", len(preds), len(cfgs))
	}
	for _, i := range []int{0, len(cfgs) / 2, len(cfgs) - 1} {
		solo, err := model.Predict(cfgs[i], ClassA)
		if err != nil {
			t.Fatal(err)
		}
		if preds[i] != solo {
			t.Fatalf("PredictAll[%d] = %+v differs from Predict %+v", i, preds[i], solo)
		}
	}
}

func TestValidateRequiresConfigs(t *testing.T) {
	model, err := Characterize(XeonE5(), LU(), charOpts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := model.Validate(nil, ClassA, 1); err == nil {
		t.Fatal("empty config list accepted")
	}
}

func TestSimulateWithDVFS(t *testing.T) {
	sys := ARMCortexA9()
	cfg := Config{Nodes: 4, Cores: 2, Freq: sys.FMax()}
	plain, err := Simulate(sys, CP(), ClassTest, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	governed, err := SimulateWithDVFS(sys, CP(), ClassTest, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	// The governor must act only through frequency: same program, same
	// message counts, possibly different time/energy.
	if governed.Comm.TotalMsgs != plain.Comm.TotalMsgs {
		t.Fatal("governor changed communication behaviour")
	}
	if governed.Time <= 0 || governed.MeasuredEnergy <= 0 {
		t.Fatal("degenerate governed run")
	}
}

func TestFTFacadeEndToEnd(t *testing.T) {
	model, err := Characterize(XeonE5(), FT(), charOpts)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := model.Predict(Config{Nodes: 4, Cores: 8, Freq: 1.8e9}, ClassA)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Eta == 0 {
		t.Fatal("FT prediction has no communication")
	}
	if len(ExtendedPrograms()) != 6 {
		t.Fatal("ExtendedPrograms should list 6 programs")
	}
}

func TestCrossbarSystemThroughFacade(t *testing.T) {
	sys := XeonE5()
	sys.Topology = "crossbar"
	model, err := Characterize(sys, SP(), charOpts)
	if err != nil {
		t.Fatal(err)
	}
	// On a crossbar, doubling nodes around the shared-medium saturation
	// point must keep speeding the run up.
	a, err := model.Predict(Config{Nodes: 8, Cores: 8, Freq: 1.8e9}, ClassA)
	if err != nil {
		t.Fatal(err)
	}
	// Crossbar predictions extrapolate beyond the testbed like the paper's.
	b, err := model.Predict(Config{Nodes: 64, Cores: 8, Freq: 1.8e9}, ClassA)
	if err != nil {
		t.Fatal(err)
	}
	if b.T >= a.T {
		t.Fatalf("crossbar scaling stalled: T(64)=%g >= T(8)=%g", b.T, a.T)
	}
}
