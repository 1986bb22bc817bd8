package exec

import (
	"fmt"
	"hash/fnv"
)

// runPin is one run recorded bit for bit: hex time, energy breakdown,
// metered energy and communication profile, the kernel's event and
// process counts, and a digest of everything else the run reports
// (counter totals, memory-controller statistics, measured UCR, the phase
// timeline and the engine counters). The governed and randomised tables
// in pins_test.go were recorded when a second, goroutine-based engine
// still ran every case as a differential partner; they now pin the one
// engine to what both engines agreed on.
type runPin struct {
	Time     string
	Energy   string
	Measured string
	Comm     string
	Digest   string
	Events   uint64
	Procs    int
}

// pinOf records res. The request must have set Trace and Metrics.
func pinOf(res *Result) runPin {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|%x|%x|", res.Totals, res.MemWait, res.MeasuredUCR)
	for _, ev := range res.Trace {
		fmt.Fprintf(h, "%x;", ev)
	}
	m := res.Metrics.Engine
	fmt.Fprintf(h, "|%d %d %d %d %d %d %d %d %d %v|%x",
		m.Events, m.SelfDispatches, m.SchedulerDispatches, m.Lookaheads, m.HeapHighWater,
		m.PoolHits, m.PoolSpawns, m.Regions, m.Messages, m.MsgBytes, res.Metrics.Ranks)
	return runPin{
		Time:     hexf(res.Time),
		Energy:   fmt.Sprintf("%x", res.Energy),
		Measured: hexf(res.MeasuredEnergy),
		Comm:     fmt.Sprintf("%x", res.Comm),
		Digest:   fmt.Sprintf("%016x", h.Sum64()),
		Events:   res.Engine.Events,
		Procs:    res.Engine.Procs,
	}
}

// pinLine renders one table entry in Go syntax (GOLDEN_GEN output).
func pinLine(name string, p runPin) string {
	return fmt.Sprintf("\t%q: {Time: %q, Energy: %q, Measured: %q, Comm: %q, Digest: %q, Events: %d, Procs: %d},\n",
		name, p.Time, p.Energy, p.Measured, p.Comm, p.Digest, p.Events, p.Procs)
}
