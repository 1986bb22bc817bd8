// Package metrics provides the simulator's observability primitives:
// lock-free atomic counters, high-water gauges and power-of-two histograms
// cheap enough to live on the DES hot path, plus the aggregate views the
// run/sweep drivers report. Instrumentation is off by default — a kernel
// with no Engine attached pays one nil check per hook — and never feeds
// back into the simulation, so metrics-on and metrics-off runs are
// bit-for-bit identical.
package metrics

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use. Atomic operations make one Engine shareable across the
// kernels of a concurrent sweep.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// HighWater tracks the maximum value ever observed. The zero value is
// ready to use.
type HighWater struct{ v atomic.Uint64 }

// Observe raises the high-water mark to v if v exceeds it.
func (h *HighWater) Observe(v uint64) {
	for {
		cur := h.v.Load()
		if v <= cur || h.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the high-water mark.
func (h *HighWater) Load() uint64 { return h.v.Load() }

// HistBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with floor(log2(v)) == i (bucket 0 takes 0 and 1),
// and the last bucket absorbs everything at or above 2^(HistBuckets-1).
const HistBuckets = 28

// Histogram is a fixed power-of-two-bucketed histogram of uint64
// observations. The zero value is ready to use.
type Histogram struct{ buckets [HistBuckets]atomic.Uint64 }

// bucketOf maps an observation to its bucket index.
func bucketOf(v uint64) int {
	if v < 2 {
		return 0
	}
	b := bits.Len64(v) - 1
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) { h.buckets[bucketOf(v)].Add(1) }

// Snapshot returns the bucket counts.
func (h *Histogram) Snapshot() (out [HistBuckets]uint64) {
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// HistString renders the non-empty buckets of a histogram snapshot as
// "[lo,hi):count" pairs, e.g. "[256,512):12 [512,1024):3".
func HistString(buckets [HistBuckets]uint64) string {
	var parts []string
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		lo := uint64(0)
		if i > 0 {
			lo = 1 << uint(i)
		}
		if i == HistBuckets-1 {
			parts = append(parts, fmt.Sprintf("[%d,inf):%d", lo, n))
		} else {
			parts = append(parts, fmt.Sprintf("[%d,%d):%d", lo, uint64(1)<<uint(i+1), n))
		}
	}
	if len(parts) == 0 {
		return "(empty)"
	}
	return strings.Join(parts, " ")
}

// bucketBounds returns the [lo, hi) value range of bucket i (hi is
// +Inf-like for the overflow bucket, reported as lo*2 so interpolation
// stays finite).
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 2
	}
	lo = float64(uint64(1) << uint(i))
	if i == HistBuckets-1 {
		return lo, lo * 2
	}
	return lo, float64(uint64(1) << uint(i+1))
}

// Quantile estimates the q-quantile (q in [0,1]) of a histogram snapshot
// by linear interpolation inside the power-of-two bucket holding the
// target rank. The estimate is exact at bucket boundaries and within a
// factor of two elsewhere — good enough for the p50/p95/p99 summaries the
// CLI and the Prometheus exposition report. Returns 0 for an empty
// histogram; observations in the overflow bucket interpolate inside
// [2^(HistBuckets-1), 2^HistBuckets).
func Quantile(buckets [HistBuckets]uint64, q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var total uint64
	for _, n := range buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	cum := 0.0
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= target {
			lo, hi := bucketBounds(i)
			frac := (target - cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	_, hi := bucketBounds(HistBuckets - 1)
	return hi
}

// Engine is the live counter set a DES kernel (and the simulated runtimes
// on top of it) writes while instrumentation is on. One Engine may be
// shared by several kernels — every field is atomic.
type Engine struct {
	// Kernel dispatch accounting. Events = SelfDispatches +
	// SchedulerDispatches: a dispatch that resumes the process that just
	// yielded is a self-dispatch, every other one a scheduler dispatch.
	// Lookahead advances bypass the event queue entirely and are counted
	// separately.
	Events              Counter   // events dispatched by the kernel
	SelfDispatches      Counter   // next event was the yielding process's own
	SchedulerDispatches Counter   // dispatches that switched process
	Lookaheads          Counter   // Advance fast path: clock moved, no event
	HeapHighWater       HighWater // deepest future-event heap observed

	// Pooled task runners (Kernel.Go).
	PoolHits   Counter // tasks served by a parked pooled runner
	PoolSpawns Counter // tasks that had to spawn a fresh runner

	// Simulated runtimes.
	Regions  Counter   // OpenMP parallel regions executed
	Messages Counter   // MPI messages posted
	MsgBytes Histogram // MPI message sizes [B]
}

// NewEngine returns an empty engine counter set.
func NewEngine() *Engine { return &Engine{} }

// Snapshot captures the current counter values.
func (e *Engine) Snapshot() EngineSnapshot {
	return EngineSnapshot{
		Events:              e.Events.Load(),
		SelfDispatches:      e.SelfDispatches.Load(),
		SchedulerDispatches: e.SchedulerDispatches.Load(),
		Lookaheads:          e.Lookaheads.Load(),
		HeapHighWater:       e.HeapHighWater.Load(),
		PoolHits:            e.PoolHits.Load(),
		PoolSpawns:          e.PoolSpawns.Load(),
		Regions:             e.Regions.Load(),
		Messages:            e.Messages.Load(),
		MsgBytes:            e.MsgBytes.Snapshot(),
	}
}

// EngineSnapshot is a plain-value copy of an Engine's counters, suitable
// for aggregation across the runs of a sweep.
type EngineSnapshot struct {
	Events              uint64
	SelfDispatches      uint64
	SchedulerDispatches uint64
	Lookaheads          uint64
	HeapHighWater       uint64
	PoolHits            uint64
	PoolSpawns          uint64
	Regions             uint64
	Messages            uint64
	MsgBytes            [HistBuckets]uint64
}

// Add accumulates another snapshot: counters sum, high-water marks take
// the maximum.
func (s *EngineSnapshot) Add(o EngineSnapshot) {
	s.Events += o.Events
	s.SelfDispatches += o.SelfDispatches
	s.SchedulerDispatches += o.SchedulerDispatches
	s.Lookaheads += o.Lookaheads
	if o.HeapHighWater > s.HeapHighWater {
		s.HeapHighWater = o.HeapHighWater
	}
	s.PoolHits += o.PoolHits
	s.PoolSpawns += o.PoolSpawns
	s.Regions += o.Regions
	s.Messages += o.Messages
	for i := range s.MsgBytes {
		s.MsgBytes[i] += o.MsgBytes[i]
	}
}

// Sub returns the change from an earlier snapshot prev to s: counters and
// histogram buckets subtract (saturating at zero, so a reset or crossed
// snapshots never yield wrapped-around garbage), while HeapHighWater keeps
// s's value — a running maximum has no meaningful difference. The service
// layer uses it to report per-request engine deltas against a shared,
// process-lifetime Engine.
func (s EngineSnapshot) Sub(prev EngineSnapshot) EngineSnapshot {
	sat := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	d := EngineSnapshot{
		Events:              sat(s.Events, prev.Events),
		SelfDispatches:      sat(s.SelfDispatches, prev.SelfDispatches),
		SchedulerDispatches: sat(s.SchedulerDispatches, prev.SchedulerDispatches),
		Lookaheads:          sat(s.Lookaheads, prev.Lookaheads),
		HeapHighWater:       s.HeapHighWater,
		PoolHits:            sat(s.PoolHits, prev.PoolHits),
		PoolSpawns:          sat(s.PoolSpawns, prev.PoolSpawns),
		Regions:             sat(s.Regions, prev.Regions),
		Messages:            sat(s.Messages, prev.Messages),
	}
	for i := range s.MsgBytes {
		d.MsgBytes[i] = sat(s.MsgBytes[i], prev.MsgBytes[i])
	}
	return d
}

// String renders a compact multi-line human summary.
func (s EngineSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events       %d dispatched (%d self, %d scheduler) + %d lookahead advances\n",
		s.Events, s.SelfDispatches, s.SchedulerDispatches, s.Lookaheads)
	fmt.Fprintf(&b, "event heap   %d deep at high water\n", s.HeapHighWater)
	fmt.Fprintf(&b, "task pool    %d reuse hits, %d spawns\n", s.PoolHits, s.PoolSpawns)
	fmt.Fprintf(&b, "omp          %d parallel regions\n", s.Regions)
	fmt.Fprintf(&b, "mpi          %d messages, size p50=%.0fB p95=%.0fB p99=%.0fB, histogram %s\n",
		s.Messages,
		Quantile(s.MsgBytes, 0.50), Quantile(s.MsgBytes, 0.95), Quantile(s.MsgBytes, 0.99),
		HistString(s.MsgBytes))
	return b.String()
}

// RankPhases is one rank's virtual-time split across the phases the
// paper's time model separates: useful computation (work plus non-memory
// pipeline stalls — the model's T_CPU numerator), memory stalls, and
// network waits. Times are summed over the rank's cores, in seconds.
type RankPhases struct {
	Rank     int
	Compute  float64 // work + non-memory pipeline stalls [s]
	MemStall float64 // stalled on the memory controller [s]
	NetWait  float64 // blocked on communication [s]
}

// RunMetrics is the observability record of one measurement run.
type RunMetrics struct {
	Engine EngineSnapshot
	Ranks  []RankPhases // per-rank phase time split, rank order
}
