package characterize

import (
	"math"
	"reflect"
	"testing"

	"hybridperf/internal/core"
	"hybridperf/internal/dvfs"
	"hybridperf/internal/machine"
	"hybridperf/internal/workload"
)

func adviseFixture(t *testing.T) (*core.Model, *machine.Profile, *workload.Spec) {
	t.Helper()
	prof := machine.XeonE5()
	spec := workload.SP()
	sum, err := Run(prof, spec, Options{Seed: 42, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(sum.Inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, prof, spec
}

func TestAdvise(t *testing.T) {
	m, prof, spec := adviseFixture(t)
	opt := AdviseOptions{Class: workload.ClassS, Nodes: 2, Cores: 4, Seed: 42, Workers: 2}
	adv, err := Advise(m, prof, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(adv.Policies); got != len(dvfs.Policies()) {
		t.Fatalf("got %d policy outcomes, want %d", got, len(dvfs.Policies()))
	}
	if adv.Static.Cfg.Nodes != 2 || adv.Static.Cfg.Cores != 4 {
		t.Fatalf("static point moved off the requested shape: %v", adv.Static.Cfg)
	}
	if !prof.HasFrequency(adv.Static.Cfg.Freq) {
		t.Fatalf("static frequency %g is not a DVFS level", adv.Static.Cfg.Freq)
	}
	if !(adv.BaselineTimeS > 0) || !(adv.BaselineEnergyJ > 0) {
		t.Fatalf("degenerate baseline: T=%g E=%g", adv.BaselineTimeS, adv.BaselineEnergyJ)
	}
	if !dvfs.ValidPolicy(adv.Recommended) {
		t.Fatalf("recommended %q is not a policy", adv.Recommended)
	}
	for i, out := range adv.Policies {
		if out.Policy != dvfs.Policies()[i] {
			t.Errorf("policy order: got %q at %d", out.Policy, i)
		}
		if math.IsNaN(out.TimeDelta) || math.IsNaN(out.EnergyDelta) {
			t.Errorf("%s: NaN deltas", out.Policy)
		}
		if len(out.Schedule) == 0 {
			t.Errorf("%s: empty frequency schedule", out.Policy)
		} else if first := out.Schedule[0]; first.Iter != 0 || first.Freq != adv.Static.Cfg.Freq {
			t.Errorf("%s: schedule opens with %v, want {0, %g}", out.Policy, first, adv.Static.Cfg.Freq)
		}
		// The fixed policy is the static oracle: bit-identical to the
		// ungoverned baseline by construction.
		if out.Policy == dvfs.PolicyFixed {
			if out.TimeDelta != 0 || out.EnergyDelta != 0 {
				t.Errorf("fixed policy deltas not exactly zero: dT=%g dE=%g", out.TimeDelta, out.EnergyDelta)
			}
			if len(out.Schedule) != 1 {
				t.Errorf("fixed policy changed frequency: %v", out.Schedule)
			}
		}
	}
	if adv.Runs != 1+len(adv.Policies) {
		t.Errorf("attribution runs = %d, want %d", adv.Runs, 1+len(adv.Policies))
	}

	// Deterministic: the whole advice, schedules included, must reproduce
	// bit-for-bit.
	again, err := Advise(m, prof, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(adv, again) {
		t.Error("advice is not deterministic across repeated evaluations")
	}
}

func TestAdviseValidation(t *testing.T) {
	m, prof, spec := adviseFixture(t)
	if _, err := Advise(m, prof, spec, AdviseOptions{Class: workload.ClassS, Nodes: 99, Cores: 4, Seed: 1}); err == nil {
		t.Error("over-sized node count accepted")
	}
	if _, err := Advise(m, prof, spec, AdviseOptions{Class: workload.ClassS, Nodes: 2, Cores: 4, Seed: 1, Policies: []string{"turbo"}}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := Advise(m, prof, spec, AdviseOptions{Class: workload.ClassS, Nodes: 2, Cores: 4, Seed: 1, MaxSlowdown: 2}); err == nil {
		t.Error("out-of-range MaxSlowdown accepted")
	}
	if _, err := Advise(m, prof, spec, AdviseOptions{Class: "Z", Nodes: 2, Cores: 4, Seed: 1}); err == nil {
		t.Error("unknown class accepted")
	}
}

// TestAdviseAllocBudget pins the allocation cost of one advise — four DES
// runs plus the static sweep. The baseline's
// phase totals are accumulated as the run goes, so the per-rank timeline
// is never stored; keeping a trace just to summarise it, or a resource
// queue that reallocates per enqueue, each blow the budget alone.
func TestAdviseAllocBudget(t *testing.T) {
	const budget = 2000
	m, prof, spec := adviseFixture(t)
	opt := AdviseOptions{Class: workload.ClassS, Nodes: 4, Cores: 4, Seed: 42, Workers: 2}
	var adviseErr error
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Advise(m, prof, spec, opt); err != nil {
			adviseErr = err
		}
	})
	if adviseErr != nil {
		t.Fatal(adviseErr)
	}
	t.Logf("%.0f allocs per advise (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("characterize.Advise allocated %.0f objects per advise, budget %d", allocs, budget)
	}
}
