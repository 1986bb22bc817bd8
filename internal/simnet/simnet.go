// Package simnet simulates the cluster interconnect. Two models are
// provided:
//
//   - Switch: a single FCFS server shared by all traffic — the star-
//     topology/shared-medium M/G/1 abstraction the paper's Eq. (5)
//     assumes, and the default for the paper's validation clusters.
//   - Crossbar: per-node ingress and egress ports with a non-blocking
//     backplane — transfers between disjoint port pairs proceed in
//     parallel, contention arises from incast (shared destination) and
//     send serialisation (shared source), as in a modern Ethernet switch.
//
// In both, the per-message service time is a fixed protocol overhead plus
// wire time at a size-dependent effective bandwidth (the saturating curve
// NetPIPE measures in Figure 3).
package simnet

import (
	"fmt"

	"hybridperf/internal/des"
	"hybridperf/internal/machine"
)

// Network is the interconnect abstraction the MPI runtime sends through.
type Network interface {
	// TransferStep moves one message, armed in op with TransferOp.Set, on
	// behalf of process p: queueing plus service. False means the transfer
	// blocked (the calling Machine must yield and re-enter), true means it
	// completed with the op ready for the next Set.
	TransferStep(op *TransferOp, p *des.Proc) bool
	// ServiceTime exposes the uncontended service time for a message size.
	ServiceTime(bytes float64) float64
	// Stats aggregates the network's queueing statistics.
	Stats() des.ResourceStats
}

// New creates the interconnect matching the profile's topology for a
// cluster of n nodes.
func New(k *des.Kernel, prof *machine.Profile, n int) Network {
	if prof.Topology == machine.TopologyCrossbar {
		return NewCrossbar(k, prof, n)
	}
	return NewSwitch(k, prof)
}

// TransferOp is the continuation state of one in-flight message transfer.
type TransferOp struct {
	pc       int8
	src, dst int
	bytes    float64
	service  float64
	enq      float64
	start    float64
	wait     float64
}

// Set arms the op for one transfer from node src to node dst.
func (op *TransferOp) Set(src, dst int, bytes float64) {
	op.src, op.dst, op.bytes = src, dst, bytes
}

// Switch is the shared-medium cluster switch (single FCFS server).
type Switch struct {
	prof *machine.Profile
	res  *des.Resource
}

// NewSwitch creates the shared switch for a cluster described by prof.
func NewSwitch(k *des.Kernel, prof *machine.Profile) *Switch {
	return &Switch{prof: prof, res: des.NewResource(k, "switch")}
}

// TransferStep implements Network: the single shared server, acquired,
// held for the service time and released: every message serialises at
// the one server.
func (s *Switch) TransferStep(op *TransferOp, p *des.Proc) bool {
	switch op.pc {
	case 0:
		op.service = s.prof.MsgServiceTime(op.bytes)
		op.enq = p.Now()
		op.pc = 1
		if !s.res.AcquireArm(p) {
			return false
		}
		fallthrough
	case 1:
		s.res.AcquireDone(op.enq)
		op.pc = 2
		if !p.AdvanceArm(op.service) {
			return false
		}
		fallthrough
	case 2:
		s.res.ServeDone(op.service)
		op.pc = 0
		return true
	}
	panic("simnet: bad TransferOp state")
}

// ServiceTime implements Network.
func (s *Switch) ServiceTime(bytes float64) float64 { return s.prof.MsgServiceTime(bytes) }

// Stats implements Network.
func (s *Switch) Stats() des.ResourceStats { return s.res.Stats() }

// Crossbar is a non-blocking switch with per-node ingress/egress ports.
// A transfer holds the source's egress port and the destination's ingress
// port for its cut-through service time (circuit model): disjoint pairs
// run concurrently, incast serialises at the destination and a sender's
// own messages serialise at its egress. Ports are always acquired egress
// first, so a port holder never waits on anything held by a waiter and
// the acquisition order is deadlock-free.
type Crossbar struct {
	prof    *machine.Profile
	egress  []*des.Resource
	ingress []*des.Resource

	served    int64
	totalWait float64
	totalSvc  float64
}

// NewCrossbar creates the crossbar interconnect for n nodes.
func NewCrossbar(k *des.Kernel, prof *machine.Profile, n int) *Crossbar {
	x := &Crossbar{prof: prof}
	for i := 0; i < n; i++ {
		x.egress = append(x.egress, des.NewResource(k, fmt.Sprintf("egress[%d]", i)))
		x.ingress = append(x.ingress, des.NewResource(k, fmt.Sprintf("ingress[%d]", i)))
	}
	return x
}

// TransferStep implements Network: egress then ingress port acquisition,
// cut-through service, reverse release.
func (x *Crossbar) TransferStep(op *TransferOp, p *des.Proc) bool {
	switch op.pc {
	case 0:
		if op.src < 0 || op.src >= len(x.egress) || op.dst < 0 || op.dst >= len(x.ingress) {
			panic(fmt.Sprintf("simnet: crossbar transfer %d->%d outside %d ports", op.src, op.dst, len(x.egress)))
		}
		op.service = x.prof.MsgServiceTime(op.bytes)
		op.start = p.Now()
		op.enq = p.Now()
		op.pc = 1
		if !x.egress[op.src].AcquireArm(p) {
			return false
		}
		fallthrough
	case 1:
		x.egress[op.src].AcquireDone(op.enq)
		op.enq = p.Now()
		op.pc = 2
		if !x.ingress[op.dst].AcquireArm(p) {
			return false
		}
		fallthrough
	case 2:
		x.ingress[op.dst].AcquireDone(op.enq)
		op.wait = p.Now() - op.start
		op.pc = 3
		if !p.AdvanceArm(op.service) {
			return false
		}
		fallthrough
	case 3:
		x.ingress[op.dst].Release()
		x.egress[op.src].Release()
		x.served++
		x.totalWait += op.wait
		x.totalSvc += op.service
		op.pc = 0
		return true
	}
	panic("simnet: bad TransferOp state")
}

// ServiceTime implements Network.
func (x *Crossbar) ServiceTime(bytes float64) float64 { return x.prof.MsgServiceTime(bytes) }

// Stats implements Network: served/wait/service aggregate over all
// transfers; Utilization reports the mean ingress-port utilisation (the
// contention-relevant stage).
func (x *Crossbar) Stats() des.ResourceStats {
	s := des.ResourceStats{
		Served:       x.served,
		TotalWait:    x.totalWait,
		TotalService: x.totalSvc,
	}
	if x.served > 0 {
		s.MeanWait = x.totalWait / float64(x.served)
		s.MeanService = x.totalSvc / float64(x.served)
	}
	var u float64
	for _, r := range x.ingress {
		u += r.Stats().Utilization
	}
	if len(x.ingress) > 0 {
		s.Utilization = u / float64(len(x.ingress))
	}
	return s
}
