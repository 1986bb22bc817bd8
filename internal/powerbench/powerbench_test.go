package powerbench

import (
	"math"
	"runtime"
	"testing"
	"time"

	"hybridperf/internal/machine"
)

func TestCharacterizeXeon(t *testing.T) {
	prof := machine.XeonE5()
	res, err := Characterize(prof, 42)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model
	// Idle within meter noise of the profile (several readings, 6 sigma).
	if math.Abs(m.PSysIdle-prof.PSysIdle) > 6*prof.MeterNoiseW {
		t.Fatalf("idle %g vs profile %g", m.PSysIdle, prof.PSysIdle)
	}
	for _, f := range prof.Frequencies {
		pact, ok := m.PAct[f]
		if !ok {
			t.Fatalf("no PAct at %.1f GHz", f/1e9)
		}
		want := prof.PCoreAct.At(f)
		// Two noisy readings divided by cmax: tolerance ~ noise.
		if math.Abs(pact-want) > prof.MeterNoiseW {
			t.Fatalf("PAct(%.1f GHz) = %g, profile %g", f/1e9, pact, want)
		}
		pstall := m.PStall[f]
		if pstall >= pact {
			t.Fatalf("stall power %g >= active %g at %.1f GHz", pstall, pact, f/1e9)
		}
		if pstall <= 0 {
			t.Fatalf("stall power %g at %.1f GHz", pstall, f/1e9)
		}
	}
	// Active power increases with frequency (as characterised).
	prev := 0.0
	for _, f := range prof.Frequencies {
		if m.PAct[f] <= prev {
			t.Fatalf("characterised PAct not increasing at %.1f GHz", f/1e9)
		}
		prev = m.PAct[f]
	}
	if m.PMem != prof.PMem {
		t.Fatalf("PMem = %g, want the JEDEC value %g", m.PMem, prof.PMem)
	}
	if math.Abs(m.PNet-prof.PNet) > 3*prof.MeterNoiseW {
		t.Fatalf("PNet = %g, profile %g", m.PNet, prof.PNet)
	}
}

func TestCharacterizeARMNoiseScale(t *testing.T) {
	prof := machine.ARMCortexA9()
	res, err := Characterize(prof, 7)
	if err != nil {
		t.Fatal(err)
	}
	// The ARM meter noise is 0.4 W (paper Sec. IV.C); per-core figures
	// divide by 4 cores, so errors must be sub-watt.
	for _, f := range prof.Frequencies {
		want := prof.PCoreAct.At(f)
		if math.Abs(res.Model.PAct[f]-want) > 0.4 {
			t.Fatalf("ARM PAct(%.1f) = %g, profile %g", f/1e9, res.Model.PAct[f], want)
		}
	}
}

func TestCharacterizeDeterministic(t *testing.T) {
	a, err := Characterize(machine.XeonE5(), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Characterize(machine.XeonE5(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.IdleWatts != b.IdleWatts || a.NetWatts != b.NetWatts {
		t.Fatal("same seed gave different characterisation")
	}
	c, err := Characterize(machine.XeonE5(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.IdleWatts == c.IdleWatts {
		t.Fatal("different seeds gave identical noisy readings")
	}
}

func TestRawTablesComplete(t *testing.T) {
	prof := machine.ARMCortexA9()
	res, err := Characterize(prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := prof.CoresPerNode * len(prof.Frequencies)
	if len(res.SpinWatts) != want || len(res.StallWatts) != want {
		t.Fatalf("raw tables have %d/%d entries, want %d", len(res.SpinWatts), len(res.StallWatts), want)
	}
	// Spin power grows with the active core count at fixed f.
	f := prof.FMax()
	p1 := res.SpinWatts[machine.CF{Cores: 1, Freq: f}]
	p4 := res.SpinWatts[machine.CF{Cores: 4, Freq: f}]
	if p4 <= p1 {
		t.Fatalf("spin power not increasing with cores: %g vs %g", p1, p4)
	}
}

func TestCharacterizeInvalidProfile(t *testing.T) {
	bad := machine.XeonE5()
	bad.CoresPerNode = 0
	if _, err := Characterize(bad, 1); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

// TestCharacterizeReapsKernels: every micro-benchmark shuts its kernel
// down, so a characterisation leaves no simulated-process goroutines
// parked behind it.
func TestCharacterizeReapsKernels(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := Characterize(machine.XeonE5(), 42); err != nil {
		t.Fatal(err)
	}
	// A reaped process goroutine may still be on its way out: give the
	// stragglers a moment, never a parked one.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("%d goroutines before Characterize, %d after", before, after)
	}
}
