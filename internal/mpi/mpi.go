// Package mpi implements a message-passing runtime in simulated time: one
// rank per node, eager non-blocking sends routed through the shared switch
// (internal/simnet), cumulative-count receives, a recursive-doubling
// allreduce and a small-message barrier. It is the substrate standing in
// for the MPI-over-TCP stack of the paper's clusters.
//
// The runtime doubles as the paper's mpiP profiler: every rank's message
// count and volume are accounted, so the workload characterisation can
// extract the communication parameters η (messages per process) and ν
// (bytes per message) without instrumenting programs.
package mpi

import (
	"fmt"
	"math"

	"hybridperf/internal/des"
	"hybridperf/internal/node"
	"hybridperf/internal/simnet"
)

// Tag separates message classes so that cumulative-count matching of halo
// traffic can never be confused by collective traffic racing ahead.
type Tag int

const (
	TagHalo    Tag = iota // point-to-point halo exchange
	TagReduce             // allreduce / barrier rounds
	TagAll2All            // all-to-all exchange steps
	numTags
)

// World is an MPI communicator spanning one rank per node.
type World struct {
	k       *des.Kernel
	net     simnet.Network
	ranks   []*Rank
	msgPool []*message // free list of in-flight message records
}

// Rank is one logical MPI process, pinned to its node's core 0 (the master
// thread performs all communication, the common hybrid-program structure).
type Rank struct {
	w    *World
	id   int
	node *node.Node

	received  [numTags]int
	cond      [numTags]des.Cond
	reduceOps int              // completed Allreduce/Barrier operations
	a2aOps    int              // completed Alltoall operations
	seqRecv   [numTags][]int32 // per-round receipt counts, indexed by sequence

	// mpiP-style accounting.
	sentMsgs  int
	sentBytes float64
	waitTime  float64
}

// NewWorld creates a communicator over the given nodes (rank i ↔ nodes[i]).
func NewWorld(k *des.Kernel, net simnet.Network, nodes []*node.Node) *World {
	w := &World{k: k, net: net}
	for i, nd := range nodes {
		w.ranks = append(w.ranks, &Rank{w: w, id: i, node: nd})
	}
	return w
}

// seqGot reports whether the collective round seq has been received.
func (r *Rank) seqGot(tag Tag, seq int) bool {
	s := r.seqRecv[tag]
	return seq < len(s) && s[seq] > 0
}

// seqMark records receipt of collective round seq. Sequence numbers grow
// monotonically with completed operations, so a flat slice replaces the
// per-message map churn of a map[int]int at a few bytes per round.
func (r *Rank) seqMark(tag Tag, seq int) {
	s := r.seqRecv[tag]
	for len(s) <= seq {
		s = append(s, 0)
	}
	s[seq]++
	r.seqRecv[tag] = s
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i's handle.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// ID returns the rank's index in the world.
func (r *Rank) ID() int { return r.id }

// Node returns the node this rank runs on.
func (r *Rank) Node() *node.Node { return r.node }

// World returns the communicator the rank belongs to.
func (r *Rank) World() *World { return r.w }

// Isend posts a non-blocking send of `bytes` to rank `to`. The message
// queues at the switch (FCFS single server) and is delivered to the
// destination's cumulative receive count for the tag. The sender's NIC is
// active until the transfer completes; the sending process does not block.
func (r *Rank) Isend(to int, bytes float64, tag Tag) { r.isend(to, bytes, tag, -1) }

// isend is Isend with an optional collective-round sequence number
// (seq >= 0) that the destination can match on exactly.
func (r *Rank) isend(to int, bytes float64, tag Tag, seq int) {
	if to < 0 || to >= len(r.w.ranks) {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d (world size %d)", to, r.w.Size()))
	}
	r.sentMsgs++
	r.sentBytes += bytes
	if m := r.w.k.Metrics(); m != nil {
		m.Messages.Inc()
		m.MsgBytes.Observe(uint64(bytes))
	}
	if to == r.id {
		// Self-delivery is immediate: shared memory, no switch transit.
		r.deliver(tag, seq)
		return
	}
	r.node.NetRef(1)
	m := r.w.newMessage()
	m.src, m.dst, m.bytes, m.tag, m.seq = r, r.w.ranks[to], bytes, tag, seq
	m.op.Set(r.id, to, bytes)
	r.w.k.Go("mpi.msg", m)
}

// message is the in-flight state of one eager send, drawn from the world's
// free list so steady-state traffic allocates nothing. The record doubles
// as the courier: a des.Machine run on a pooled kernel process, carrying
// its transfer continuation in op.
type message struct {
	src, dst *Rank
	bytes    float64
	tag      Tag
	seq      int
	op       simnet.TransferOp
}

// Step implements des.Machine: the courier. The message drives its own
// transfer through the network, then drops the sender's NIC reference,
// recycles itself and delivers.
func (m *message) Step(mp *des.Proc) bool {
	w := m.src.w
	if !w.net.TransferStep(&m.op, mp) {
		return false
	}
	m.src.node.NetRef(-1)
	dst, tag, seq := m.dst, m.tag, m.seq
	w.freeMessage(m)
	dst.deliver(tag, seq)
	return true
}

// newMessage takes a message from the free list (or allocates the first
// few). Simulated processes run one at a time, so no locking is needed.
func (w *World) newMessage() *message {
	if n := len(w.msgPool); n > 0 {
		m := w.msgPool[n-1]
		w.msgPool = w.msgPool[:n-1]
		return m
	}
	return &message{}
}

// freeMessage returns a delivered message to the free list.
func (w *World) freeMessage(m *message) {
	*m = message{}
	w.msgPool = append(w.msgPool, m)
}

// deliver records a message arrival and wakes waiters.
func (r *Rank) deliver(tag Tag, seq int) {
	r.received[tag]++
	if seq >= 0 {
		r.seqMark(tag, seq)
	}
	r.cond[tag].Broadcast()
}

// Received reports the cumulative receive count for a tag.
func (r *Rank) Received(tag Tag) int { return r.received[tag] }

// ReduceRounds returns the number of communication rounds (and thus
// messages per rank) of an allreduce over n ranks: ceil(log2 n).
func ReduceRounds(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// The blocking receives and collectives below are resumable ops a rank's
// master Machine drives across blocks: arm the op, then call its Step
// method at each resumption until it reports completion (false means it
// blocked — yield and re-enter).

// waitOp is the shared continuation state of a blocking receive: the
// NIC hold, core-idle transition and wait-time accounting around a
// re-checked predicate (WaitCountOp's cumulative count or a collective
// round's sequence number).
type waitOp struct {
	pc    int8
	start float64
	ws    float64
}

// WaitCountOp blocks the rank's master process until the cumulative
// number of messages received with Tag reaches Target. Blocked time is
// accounted as network wait on core 0 and keeps the NIC active. Arm Tag
// and Target, then drive with Rank.WaitCountStep; re-arm by assignment for
// the next wait.
type WaitCountOp struct {
	w      waitOp
	Tag    Tag
	Target int
}

// WaitCountStep drives an armed WaitCountOp: false means the wait blocked
// (yield and re-enter), true means the target count has been received.
func (r *Rank) WaitCountStep(op *WaitCountOp, p *des.Proc) bool {
	switch op.w.pc {
	case 0:
		if r.received[op.Tag] >= op.Target {
			return true
		}
		op.w.start = p.Now()
		r.node.NetRef(1)
		op.w.ws = r.node.NetWaitBegin(0)
		op.w.pc = 1
		fallthrough
	case 1:
		if r.received[op.Tag] < op.Target {
			r.cond[op.Tag].WaitArm(p)
			return false
		}
		r.node.NetWaitEnd(0, op.w.ws)
		r.node.NetRef(-1)
		r.waitTime += p.Now() - op.w.start
		op.w.pc = 0
		return true
	}
	panic("mpi: bad WaitCountOp state")
}

// waitSeqOp waits until one message with the given collective sequence
// number has arrived on the tag, with the same NIC/idle accounting as
// WaitCountOp.
type waitSeqOp struct {
	w   waitOp
	tag Tag
	seq int
}

func (r *Rank) waitSeqStep(op *waitSeqOp, p *des.Proc) bool {
	switch op.w.pc {
	case 0:
		if r.seqGot(op.tag, op.seq) {
			return true
		}
		op.w.start = p.Now()
		r.node.NetRef(1)
		op.w.ws = r.node.NetWaitBegin(0)
		op.w.pc = 1
		fallthrough
	case 1:
		if !r.seqGot(op.tag, op.seq) {
			r.cond[op.tag].WaitArm(p)
			return false
		}
		r.node.NetWaitEnd(0, op.w.ws)
		r.node.NetRef(-1)
		r.waitTime += p.Now() - op.w.start
		op.w.pc = 0
		return true
	}
	panic("mpi: bad waitSeqOp state")
}

// AllreduceOp is a ring-hypercube allreduce of Bytes per message:
// ceil(log2 n) rounds in which every rank sends to (id+2^k) mod n and
// waits for one message — a permutation each round, so it cannot deadlock
// for any world size. It must be driven from the calling rank's master
// process.
//
// Each round is matched exactly by a sequence number (operation x round):
// the round-k wait is satisfied only by the round-k message from
// (id-2^k) mod n, which that rank sends only after completing its own
// round k-1 — the dissemination-barrier dependency chain that makes the
// operation a true global synchronisation for any world size. Every rank
// must execute the same collective sequence (SPMD), as in MPI. A barrier
// is an AllreduceOp with Bytes 8, which is how MPI_Barrier costs out on an
// Ethernet cluster (latency-bound rounds).
//
// Arm Bytes, then drive with Rank.AllreduceStep. The op self-resets on
// completion, so one value serves every iteration of a program loop.
type AllreduceOp struct {
	pc     int8
	Bytes  float64
	op     int
	round  int
	rounds int
	wait   waitSeqOp
}

// AllreduceStep drives an armed AllreduceOp: false means a round's wait
// blocked (yield and re-enter), true means the collective completed.
func (r *Rank) AllreduceStep(aop *AllreduceOp, p *des.Proc) bool {
	n := r.w.Size()
	if aop.pc == 0 {
		if n == 1 {
			return true
		}
		aop.rounds = ReduceRounds(n)
		aop.op = r.reduceOps
		r.reduceOps++
		aop.round = 0
		aop.pc = 1
	}
	for aop.round < aop.rounds {
		if aop.pc == 1 {
			partner := (r.id + (1 << aop.round)) % n
			seq := aop.op*aop.rounds + aop.round
			r.isend(partner, aop.Bytes, TagReduce, seq)
			aop.wait = waitSeqOp{tag: TagReduce, seq: seq}
			aop.pc = 2
		}
		if !r.waitSeqStep(&aop.wait, p) {
			return false
		}
		aop.round++
		aop.pc = 1
	}
	aop.pc = 0
	return true
}

// AlltoallOp is a personalised all-to-all exchange: every rank sends
// Bytes to each of the other n-1 ranks and waits for the n-1 messages
// addressed to it, using a rotation schedule (step k sends to (id+k) mod
// n, a permutation per step). Rank id's step-k receipt comes from
// (id-k) mod n and is matched exactly by an (operation, step) sequence
// number. All n-1 sends are posted eagerly before waiting, so the exchange
// pipelines through the switch. Like AllreduceOp it is a synchronising
// collective; every rank must run it the same number of times (SPMD).
// Arm Bytes (the per-peer message volume), then drive with
// Rank.AlltoallStep; self-resetting like AllreduceOp.
type AlltoallOp struct {
	pc    int8
	Bytes float64
	base  int
	step  int
	wait  waitSeqOp
}

// AlltoallStep drives an armed AlltoallOp: all n-1 sends are posted
// eagerly on first entry, then the step waits are drained in order.
func (r *Rank) AlltoallStep(aop *AlltoallOp, p *des.Proc) bool {
	n := r.w.Size()
	if aop.pc == 0 {
		if n == 1 {
			return true
		}
		aop.base = r.a2aOps * (n - 1)
		r.a2aOps++
		for step := 1; step < n; step++ {
			r.isend((r.id+step)%n, aop.Bytes, TagAll2All, aop.base+step-1)
		}
		aop.step = 1
		aop.pc = 1
	}
	for aop.step < n {
		if aop.pc == 1 {
			aop.wait = waitSeqOp{tag: TagAll2All, seq: aop.base + aop.step - 1}
			aop.pc = 2
		}
		if !r.waitSeqStep(&aop.wait, p) {
			return false
		}
		aop.step++
		aop.pc = 1
	}
	aop.pc = 0
	return true
}

// Profile is the mpiP-style communication summary of a run.
type Profile struct {
	Ranks        int
	TotalMsgs    int     // messages sent, summed over ranks
	TotalBytes   float64 // bytes sent, summed over ranks
	MsgsPerRank  float64 // η: mean messages per process
	BytesPerMsg  float64 // ν: mean message volume [B]
	MeanWaitTime float64 // mean per-rank blocked-in-MPI time [s]
	SwitchStats  des.ResourceStats
}

// Profile extracts the communication profile accumulated so far.
func (w *World) Profile() Profile {
	p := Profile{Ranks: w.Size(), SwitchStats: w.net.Stats()}
	var wait float64
	for _, r := range w.ranks {
		p.TotalMsgs += r.sentMsgs
		p.TotalBytes += r.sentBytes
		wait += r.waitTime
	}
	if p.Ranks > 0 {
		p.MsgsPerRank = float64(p.TotalMsgs) / float64(p.Ranks)
		p.MeanWaitTime = wait / float64(p.Ranks)
	}
	if p.TotalMsgs > 0 {
		p.BytesPerMsg = p.TotalBytes / float64(p.TotalMsgs)
	}
	return p
}
