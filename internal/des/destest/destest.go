// Package destest scripts simulated processes for tests. A process body
// that production code writes as a hand-rolled des.Machine (a program
// counter switch over the Arm primitives) is written here as a flat list
// of ops, so a test reads like the sequence of events it simulates:
//
//	k.Spawn("p", destest.Script(
//		destest.Advance(1),
//		destest.Do(func(p *des.Proc) { log = append(log, p.Now()) }),
//	))
//
// Ops share the contract of the runtime's stepped operations
// (node.Node.ComputeStep, mpi.Rank.WaitCountStep, ...): the script calls
// an op at each resumption until it reports completion, so any such call
// wrapped in a closure is an Op too.
package destest

import "hybridperf/internal/des"

// Op is one step of a scripted process. The script calls it at each
// resumption of the process until it reports completion (true); false
// means the op armed a block and the process yields. Ops reset themselves
// on completion, so one may run again (Repeat, While), but an Op value
// belongs to a single process.
type Op func(p *des.Proc) bool

// script runs ops in order; it resets on completion.
type script struct {
	ops []Op
	pc  int
}

func (s *script) Step(p *des.Proc) bool {
	for s.pc < len(s.ops) {
		if !s.ops[s.pc](p) {
			return false
		}
		s.pc++
	}
	s.pc = 0
	return true
}

// Script returns a des.Machine that runs ops in order. It resets on
// completion, so a pooled task (des.Kernel.Go) may reuse it.
func Script(ops ...Op) des.Machine { return &script{ops: ops} }

// Seq groups ops into one.
func Seq(ops ...Op) Op { return (&script{ops: ops}).Step }

// Do runs f and completes at once.
func Do(f func(p *des.Proc)) Op {
	return func(p *des.Proc) bool { f(p); return true }
}

// Advance suspends the process for dt seconds of virtual time.
func Advance(dt float64) Op {
	armed := false
	return func(p *des.Proc) bool {
		if armed {
			armed = false
			return true
		}
		if p.AdvanceArm(dt) {
			return true
		}
		armed = true
		return false
	}
}

// Halt blocks the process until another process wakes it.
func Halt() Op {
	armed := false
	return func(p *des.Proc) bool {
		if armed {
			armed = false
			return true
		}
		p.HaltArm()
		armed = true
		return false
	}
}

// Wait blocks the process on c until done reports true, re-checking after
// every broadcast.
func Wait(c *des.Cond, done func() bool) Op {
	return func(p *des.Proc) bool {
		if done() {
			return true
		}
		c.WaitArm(p)
		return false
	}
}

// Acquire queues the process for r and completes holding it, storing the
// queueing delay in *wait when wait is non-nil. The process must release
// r later (Do with r.Release or r.ServeDone).
func Acquire(r *des.Resource, wait *float64) Op {
	armed := false
	var enq float64
	return func(p *des.Proc) bool {
		if !armed {
			enq = p.Now()
			if !r.AcquireArm(p) {
				armed = true
				return false
			}
		}
		armed = false
		w := r.AcquireDone(enq)
		if wait != nil {
			*wait = w
		}
		return true
	}
}

// Serve queues for r, holds it for service seconds and releases it,
// storing the queueing delay in *wait when wait is non-nil.
func Serve(r *des.Resource, service float64, wait *float64) Op {
	return Seq(
		Acquire(r, wait),
		Advance(service),
		Do(func(*des.Proc) { r.ServeDone(service) }),
	)
}

// Repeat runs ops n times.
func Repeat(n int, ops ...Op) Op {
	i := 0
	return While(func(*des.Proc) bool {
		if i == n {
			i = 0
			return false
		}
		i++
		return true
	}, ops...)
}

// While runs ops again and again for as long as cond, checked before each
// round, reports true.
func While(cond func(p *des.Proc) bool, ops ...Op) Op {
	body := Seq(ops...)
	inRound := false
	return func(p *des.Proc) bool {
		for {
			if !inRound {
				if !cond(p) {
					return true
				}
				inRound = true
			}
			if !body(p) {
				return false
			}
			inRound = false
		}
	}
}
