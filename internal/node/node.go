// Package node simulates one cluster node: c active cores at a fixed DVFS
// frequency, a UMA memory controller shared by the cores (a FCFS
// single-server queue, so intra-node memory contention emerges from
// queueing exactly as the paper's stall-cycle measurements capture it),
// a NIC activity flag, and a power integrator that plays the role of the
// WattsUp meter: node power is integrated over per-component activity
// states, split into the CPU/memory/network/idle components of Eqs (8-12).
package node

import (
	"fmt"

	"hybridperf/internal/counters"
	"hybridperf/internal/des"
	"hybridperf/internal/machine"
	"hybridperf/internal/rng"
	"hybridperf/internal/trace"
)

// CoreState is a core's instantaneous activity class for power accounting.
type CoreState int

const (
	Idle  CoreState = iota // not executing (waiting on network, parked)
	Act                    // executing work or pipeline-stalled: active power
	Stall                  // stalled on memory: stall power
)

// Node is one simulated cluster node.
type Node struct {
	ID   int
	prof *machine.Profile
	k    *des.Kernel
	freq float64 // Hz

	memctl *des.Resource
	states []CoreState
	Ctrs   []counters.Core

	jitter *rng.Stream

	// rec, when non-nil, receives the node's phase timeline for core 0 —
	// the rank's master thread, which is the per-process view the paper's
	// timelines show. Worker-thread cores are covered by the aggregate
	// counters instead; recording them too would overlay concurrent
	// events on one rank row and double-count phase time. Recording never
	// feeds back into the simulation.
	rec *trace.Recorder

	// Power integration. pAct/pStall cache the profile's per-core power at
	// the current frequency: integrate runs on every core state
	// transition, and the power-curve evaluation (math.Pow) only changes
	// when the DVFS level does.
	lastT  float64
	nAct   int
	nStall int
	netRef int
	pAct   float64
	pStall float64
	energy EnergyBreakdown
}

// EnergyBreakdown is the per-node energy split mirroring Eqs (8)-(12).
type EnergyBreakdown struct {
	CPU  float64 // J: active + stall core energy (Eq. 9)
	Mem  float64 // J: memory subsystem while servicing stalls (Eq. 10)
	Net  float64 // J: NIC while communication is in flight (Eq. 11)
	Idle float64 // J: baseline system power over the whole run (Eq. 12)
}

// Total returns the node's total energy in joules.
func (e EnergyBreakdown) Total() float64 { return e.CPU + e.Mem + e.Net + e.Idle }

// Add accumulates another breakdown (for cluster totals).
func (e *EnergyBreakdown) Add(o EnergyBreakdown) {
	e.CPU += o.CPU
	e.Mem += o.Mem
	e.Net += o.Net
	e.Idle += o.Idle
}

// New creates a node with the given number of active cores running at
// frequency f. jitter is the node's OS-noise stream (may be nil for
// noise-free runs, e.g. micro-benchmarks).
func New(k *des.Kernel, prof *machine.Profile, id, cores int, f float64, jitter *rng.Stream) *Node {
	if cores < 1 || cores > prof.CoresPerNode {
		panic(fmt.Sprintf("node: %d cores outside [1,%d]", cores, prof.CoresPerNode))
	}
	if !prof.HasFrequency(f) {
		panic(fmt.Sprintf("node: %.2f GHz is not a DVFS level of %s", f/1e9, prof.Name))
	}
	return &Node{
		ID:     id,
		prof:   prof,
		k:      k,
		freq:   f,
		memctl: des.NewResource(k, fmt.Sprintf("mem[%d]", id)),
		states: make([]CoreState, cores),
		Ctrs:   make([]counters.Core, cores),
		jitter: jitter,
		pAct:   prof.PCoreAct.At(f),
		pStall: prof.PCoreStall(f),
	}
}

// Cores returns the number of active cores.
func (n *Node) Cores() int { return len(n.states) }

// Freq returns the current core frequency [Hz].
func (n *Node) Freq() float64 { return n.freq }

// SetFreq switches the node's DVFS level. It may only be called when every
// core is idle (an iteration boundary — the granularity at which runtime
// DVFS governors act); energy integration is brought up to date under the
// old level first, so the power accounting stays exact across switches.
func (n *Node) SetFreq(f float64) {
	if f == n.freq {
		return
	}
	if !n.prof.HasFrequency(f) {
		panic(fmt.Sprintf("node: %.2f GHz is not a DVFS level of %s", f/1e9, n.prof.Name))
	}
	for core, st := range n.states {
		if st != Idle {
			panic(fmt.Sprintf("node: SetFreq with core %d active", core))
		}
	}
	n.integrate()
	n.freq = f
	n.pAct = n.prof.PCoreAct.At(f)
	n.pStall = n.prof.PCoreStall(f)
}

// Profile returns the node's hardware profile.
func (n *Node) Profile() *machine.Profile { return n.prof }

// SetTrace attaches a phase-timeline recorder (nil detaches). The node
// records its master thread (core 0) under its node id as the rank.
func (n *Node) SetTrace(rec *trace.Recorder) { n.rec = rec }

// integrate advances the power integrator to the current virtual time.
func (n *Node) integrate() {
	now := n.k.Now()
	dt := now - n.lastT
	if dt > 0 {
		n.energy.CPU += (float64(n.nAct)*n.pAct + float64(n.nStall)*n.pStall) * dt
		if n.nStall > 0 {
			n.energy.Mem += n.prof.PMem * dt
		}
		if n.netRef > 0 {
			n.energy.Net += n.prof.PNet * dt
		}
		n.energy.Idle += n.prof.PSysIdle * dt
	}
	n.lastT = now
}

// setState transitions a core's power state.
func (n *Node) setState(core int, st CoreState) {
	old := n.states[core]
	if old == st {
		return
	}
	n.integrate()
	switch old {
	case Act:
		n.nAct--
	case Stall:
		n.nStall--
	}
	switch st {
	case Act:
		n.nAct++
	case Stall:
		n.nStall++
	}
	n.states[core] = st
}

// NetRef adjusts the node's count of in-flight communication activities
// (posted sends not yet delivered, blocked receives). The NIC draws power
// while the count is positive.
func (n *Node) NetRef(delta int) {
	n.integrate()
	n.netRef += delta
	if n.netRef < 0 {
		panic("node: negative NIC refcount")
	}
}

// Energy finalises power integration at the current time and returns the
// node's energy breakdown.
func (n *Node) Energy() EnergyBreakdown {
	n.integrate()
	return n.energy
}

// NetWaitBegin marks the core idle for a network wait (typically a
// blocked receive) and returns the wait start time; NetWaitEnd accounts
// the elapsed wait on that core. The core is idle for power purposes; the
// NIC reference is held by the caller.
func (n *Node) NetWaitBegin(core int) float64 {
	n.setState(core, Idle)
	return n.k.Now()
}

// NetWaitEnd accounts the elapsed network wait begun at start.
func (n *Node) NetWaitEnd(core int, start float64) {
	n.Ctrs[core].NetWaitTime += n.k.Now() - start
	if n.rec != nil && core == 0 {
		n.rec.Add(n.ID, trace.Network, start, n.k.Now())
	}
}

// MemStats exposes the memory controller's queueing statistics.
func (n *Node) MemStats() des.ResourceStats { return n.memctl.Stats() }

// Totals aggregates the node's core counters at the run frequency.
func (n *Node) Totals(elapsed float64) counters.Totals {
	return counters.Aggregate(n.Ctrs, n.freq, elapsed)
}
