// Package omp implements the shared-memory half of the hybrid programming
// model in simulated time: fork-join parallel regions whose threads are
// pinned one-per-core on a simulated node. Threads interleave compute
// bursts with memory accesses; contention for the node's UMA memory
// controller is what turns parallelism into the stall cycles the paper's
// model measures as ms.
package omp

import (
	"strconv"

	"hybridperf/internal/des"
	"hybridperf/internal/node"
)

// Team executes parallel regions on a node, one thread per active core.
// The master thread (tid 0) runs on the calling process, mirroring the
// OpenMP execution model where the MPI process's main thread becomes
// thread 0 of each region.
//
// Worker threads form a persistent pool: they are spawned once, on the
// team's first parallel region, and parked between regions — a run with
// thousands of regions creates exactly Size()-1 worker processes, as a
// real OpenMP runtime would.
type Team struct {
	k    *des.Kernel
	node *node.Node

	workers []*des.Proc // parked pool, index i drives thread id i+1
	done    int         // workers finished with the current region
	join    des.Cond
	master  Thread // reusable master-thread context (tid 0)
}

// NewTeam creates a team covering all active cores of nd.
func NewTeam(k *des.Kernel, nd *node.Node) *Team {
	return &Team{k: k, node: nd}
}

// Node returns the node the team runs on.
func (t *Team) Node() *node.Node { return t.node }

// Size returns the team's thread count (the node's active cores).
func (t *Team) Size() int { return t.node.Cores() }

// Thread is the per-thread execution context inside a parallel region.
type Thread struct {
	P    *des.Proc // the simulated process driving this thread
	ID   int       // thread id == core id
	team *Team
}

// Body is a parallel-region body: Step runs one thread's share of the
// region until it blocks (false) or completes (true). A body must
// self-reset on completion — the same value is re-entered at the next
// region.
type Body interface {
	Step(th *Thread) bool
}

// RegionBegin opens a parallel region (an `omp parallel` region): it
// counts the region, resets the join accounting and makes every worker
// runnable (spawning the persistent pool on the first region; mk builds
// the body of worker tid, which every later region re-enters). It returns
// the master's Thread context (tid 0): the master runs its own share of
// the region inline, as the MPI process's main thread becomes thread 0 of
// each OpenMP region, and then joins with RegionJoinArm.
func (t *Team) RegionBegin(p *des.Proc, mk func(tid int) Body) *Thread {
	if m := t.k.Metrics(); m != nil {
		m.Regions.Inc()
	}
	t.done = 0
	if t.workers == nil {
		t.spawnWorkers(p.Name(), t.Size(), mk)
	} else {
		for _, wp := range t.workers {
			wp.Wake()
		}
	}
	t.master = Thread{P: p, ID: 0, team: t}
	return &t.master
}

// RegionJoinArm is the region's implicit barrier: true when every worker
// already finished (proceed); false when the master was armed to wait for
// stragglers — the calling Machine must yield and treat its next re-entry
// as the join having completed.
func (t *Team) RegionJoinArm(p *des.Proc) bool {
	if t.done < t.Size()-1 {
		t.join.WaitArm(p)
		return false
	}
	return true
}

// worker drives one persistent worker thread: run the region body,
// count completion (the last worker releases the master), park until the
// next region wakes it.
type worker struct {
	t    *Team
	th   Thread
	body Body
}

// Step implements des.Machine. It always returns false: a worker is a
// daemon that parks between regions and never completes.
func (w *worker) Step(p *des.Proc) bool {
	w.th.P = p
	if !w.body.Step(&w.th) {
		return false
	}
	w.t.done++
	if w.t.done == w.t.Size()-1 {
		w.t.join.Broadcast() // last worker releases the master
	}
	p.HaltArm()
	return false
}

func (t *Team) spawnWorkers(master string, n int, mk func(tid int) Body) {
	for tid := 1; tid < n; tid++ {
		name := master + ".t" + strconv.Itoa(tid)
		w := &worker{t: t, th: Thread{ID: tid, team: t}, body: mk(tid)}
		t.workers = append(t.workers, t.k.SpawnDaemon(name, w))
	}
}

// ComputeStep drives a resumable compute burst on this thread's core.
func (th *Thread) ComputeStep(op *node.ComputeOp) bool {
	return th.team.node.ComputeStep(op, th.P, th.ID)
}

// MemStep drives a resumable memory access on this thread's core.
func (th *Thread) MemStep(op *node.MemOp) bool {
	return th.team.node.MemStep(op, th.P, th.ID)
}
