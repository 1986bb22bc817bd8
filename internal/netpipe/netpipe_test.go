package netpipe

import (
	"math"
	"runtime"
	"testing"
	"time"

	"hybridperf/internal/core"
	"hybridperf/internal/machine"
)

func TestMeasureCurveShape(t *testing.T) {
	prof := machine.ARMCortexA9()
	points, err := Measure(prof, DefaultSizes(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(DefaultSizes()) {
		t.Fatalf("%d points for %d sizes", len(points), len(DefaultSizes()))
	}
	// Latency strictly increasing, throughput non-decreasing with size.
	for i := 1; i < len(points); i++ {
		if points[i].Latency <= points[i-1].Latency {
			t.Fatalf("latency not increasing at %g B", points[i].Bytes)
		}
		if points[i].Throughput < points[i-1].Throughput {
			t.Fatalf("throughput decreasing at %g B", points[i].Bytes)
		}
	}
}

func TestPeakNear90Mbps(t *testing.T) {
	// The paper's Figure 3 headline: a 100 Mbps link achieves ~90 Mbps.
	prof := machine.ARMCortexA9()
	points, nm, err := Characterize(prof)
	if err != nil {
		t.Fatal(err)
	}
	largest := points[len(points)-1]
	if largest.Mbps() < 85 || largest.Mbps() > 92 {
		t.Fatalf("peak throughput %.1f Mbps, want ~90", largest.Mbps())
	}
	fitMbps := nm.Peak * 8 / 1e6
	if math.Abs(fitMbps-90) > 2 {
		t.Fatalf("fitted peak %.1f Mbps, want ~90", fitMbps)
	}
}

func TestFitRecoversServiceModel(t *testing.T) {
	// The simulated switch's service time is exactly affine in size, so
	// the fit should reproduce it almost perfectly.
	prof := machine.XeonE5()
	points, nm, err := Characterize(prof)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		pred := nm.ServiceTime(p.Bytes)
		if math.Abs(pred-p.Latency)/p.Latency > 0.02 {
			t.Fatalf("fit off by >2%% at %g B: %g vs %g", p.Bytes, pred, p.Latency)
		}
	}
	wantPeak := prof.NetEfficiency * prof.LinkBandwidth / 8
	if math.Abs(nm.Peak-wantPeak)/wantPeak > 0.01 {
		t.Fatalf("fitted peak %g, want %g", nm.Peak, wantPeak)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("empty fit accepted")
	}
	if _, err := Fit([]Point{{Bytes: 1, Latency: 1}}); err == nil {
		t.Error("single-point fit accepted")
	}
	// Same size twice: degenerate in x.
	if _, err := Fit([]Point{{Bytes: 5, Latency: 1}, {Bytes: 5, Latency: 2}}); err == nil {
		t.Error("degenerate sweep accepted")
	}
	// Decreasing latency with size: negative bandwidth.
	if _, err := Fit([]Point{{Bytes: 1, Latency: 2}, {Bytes: 100, Latency: 1}}); err == nil {
		t.Error("negative-slope fit accepted")
	}
}

func TestFitClampsNegativeIntercept(t *testing.T) {
	nm, err := Fit([]Point{{Bytes: 100, Latency: 1e-7}, {Bytes: 1e6, Latency: 1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	if nm.Overhead < 0 {
		t.Fatalf("negative overhead %g", nm.Overhead)
	}
	var _ core.NetModel = nm
}

func TestMeasureErrors(t *testing.T) {
	prof := machine.XeonE5()
	prof.MaxNodes = 1
	if _, err := Measure(prof, DefaultSizes(), 1); err == nil {
		t.Error("single-node profile accepted for ping-pong")
	}
	bad := machine.XeonE5()
	bad.MemBandwidth = 0
	if _, err := Measure(bad, DefaultSizes(), 1); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestDefaultSizesSpan(t *testing.T) {
	sizes := DefaultSizes()
	if sizes[0] != 1 {
		t.Fatalf("first size %g, want 1 B", sizes[0])
	}
	if sizes[len(sizes)-1] != 16<<20 {
		t.Fatalf("last size %g, want 16 MiB", sizes[len(sizes)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != 2*sizes[i-1] {
			t.Fatal("sizes are not powers of two")
		}
	}
}

// TestMeasureReapsKernel: Measure shuts its kernel down, so the MPI
// couriers of its ping-pong leave no goroutines parked behind it.
func TestMeasureReapsKernel(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := Measure(machine.ARMCortexA9(), DefaultSizes(), 2); err != nil {
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
		t.Errorf("%d goroutines before Measure, %d after", before, after)
	}
}
