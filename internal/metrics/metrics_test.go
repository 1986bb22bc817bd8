package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestHighWater(t *testing.T) {
	var h HighWater
	for _, v := range []uint64{3, 9, 2, 9, 5} {
		h.Observe(v)
	}
	if got := h.Load(); got != 9 {
		t.Fatalf("high water = %d, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10},
		{1 << 40, HistBuckets - 1}, // overflow absorbs into the last bucket
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Fatalf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	var h Histogram
	h.Observe(0)
	h.Observe(1)
	h.Observe(300)
	s := h.Snapshot()
	if s[0] != 2 || s[8] != 1 {
		t.Fatalf("snapshot %v", s)
	}
	str := HistString(s)
	if !strings.Contains(str, "[0,2):2") || !strings.Contains(str, "[256,512):1") {
		t.Fatalf("HistString = %q", str)
	}
	if HistString([HistBuckets]uint64{}) != "(empty)" {
		t.Fatal("empty histogram rendering")
	}
}

func TestQuantile(t *testing.T) {
	var h Histogram
	// 100 observations of 1 → every quantile lives in bucket 0 = [0,2).
	for i := 0; i < 100; i++ {
		h.Observe(1)
	}
	s := h.Snapshot()
	if q := Quantile(s, 0.5); q <= 0 || q >= 2 {
		t.Fatalf("p50 of all-ones = %g, want inside [0,2)", q)
	}
	if Quantile([HistBuckets]uint64{}, 0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}

	// Uniform mass over [256,512) and [512,1024): the median sits at the
	// bucket boundary, p25/p75 at the bucket midpoints.
	var u [HistBuckets]uint64
	u[8], u[9] = 100, 100
	if q := Quantile(u, 0.5); q != 512 {
		t.Fatalf("p50 = %g, want 512 (boundary exact)", q)
	}
	if q := Quantile(u, 0.25); q != 384 {
		t.Fatalf("p25 = %g, want 384 (mid of [256,512))", q)
	}
	if q := Quantile(u, 1.0); q != 1024 {
		t.Fatalf("p100 = %g, want 1024 (top of [512,1024))", q)
	}
	// Quantiles are monotone in q, and out-of-range q clamps.
	prev := 0.0
	for _, q := range []float64{-1, 0, 0.1, 0.5, 0.9, 0.99, 1, 2} {
		v := Quantile(u, q)
		if v < prev {
			t.Fatalf("Quantile not monotone at q=%g: %g < %g", q, v, prev)
		}
		prev = v
	}
	// Overflow bucket stays finite.
	var o [HistBuckets]uint64
	o[HistBuckets-1] = 5
	if q := Quantile(o, 0.99); math.IsInf(q, 0) || q <= 0 {
		t.Fatalf("overflow-bucket quantile = %g, want finite positive", q)
	}
}

func TestEngineSnapshotSub(t *testing.T) {
	a := EngineSnapshot{Events: 100, SelfDispatches: 40, HeapHighWater: 9, Messages: 12}
	a.MsgBytes[3] = 7
	b := EngineSnapshot{Events: 30, SelfDispatches: 50, HeapHighWater: 4, Messages: 2}
	b.MsgBytes[3] = 2
	d := a.Sub(b)
	if d.Events != 70 || d.Messages != 10 || d.MsgBytes[3] != 5 {
		t.Fatalf("delta wrong: %+v", d)
	}
	if d.SelfDispatches != 0 {
		t.Fatalf("crossed counters must saturate at 0, got %d", d.SelfDispatches)
	}
	if d.HeapHighWater != 9 {
		t.Fatalf("high water keeps the current value, got %d", d.HeapHighWater)
	}
}

func TestEngineSnapshotAdd(t *testing.T) {
	a := EngineSnapshot{Events: 10, SelfDispatches: 4, HeapHighWater: 7, Messages: 2}
	b := EngineSnapshot{Events: 5, SelfDispatches: 1, HeapHighWater: 3, Messages: 8}
	b.MsgBytes[2] = 8
	a.Add(b)
	if a.Events != 15 || a.SelfDispatches != 5 || a.Messages != 10 {
		t.Fatalf("sums wrong: %+v", a)
	}
	if a.HeapHighWater != 7 {
		t.Fatalf("high water should take the max, got %d", a.HeapHighWater)
	}
	if a.MsgBytes[2] != 8 {
		t.Fatalf("histogram buckets must sum: %v", a.MsgBytes)
	}
}

func TestEngineSnapshotString(t *testing.T) {
	var e Engine
	e.Events.Add(3)
	e.Messages.Inc()
	e.MsgBytes.Observe(100)
	s := e.Snapshot().String()
	for _, want := range []string{"3 dispatched", "1 messages", "[64,128):1", "p50=", "p95=", "p99="} {
		if !strings.Contains(s, want) {
			t.Fatalf("snapshot string lacks %q:\n%s", want, s)
		}
	}
}

// An Engine must tolerate concurrent writers: one shared Engine can be
// attached to the kernels of a parallel sweep.
func TestEngineConcurrentWriters(t *testing.T) {
	e := NewEngine()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				e.Events.Inc()
				e.HeapHighWater.Observe(uint64(w*perWorker + i))
				e.MsgBytes.Observe(uint64(i))
			}
		}(w)
	}
	wg.Wait()
	s := e.Snapshot()
	if s.Events != workers*perWorker {
		t.Fatalf("events = %d, want %d", s.Events, workers*perWorker)
	}
	if s.HeapHighWater != workers*perWorker-1 {
		t.Fatalf("high water = %d", s.HeapHighWater)
	}
	var total uint64
	for _, n := range s.MsgBytes {
		total += n
	}
	if total != workers*perWorker {
		t.Fatalf("histogram total = %d", total)
	}
}
