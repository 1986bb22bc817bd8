package des_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"hybridperf/internal/des"
)

// The TestSeq tests drive the raw Machine contract with hand-written
// continuations — a program counter switch over the Arm primitives, the
// way the runtime's own process bodies are written — where the other
// kernel tests script their processes with destest.

// stepper adapts a closure (holding its state in captured variables) to a
// Machine, the way a hand-written continuation would.
type stepper struct{ f func(p *des.Proc) bool }

func (s *stepper) Step(p *des.Proc) bool { return s.f(p) }

func TestSeqAdvanceOrdersEvents(t *testing.T) {
	k := des.NewKernel()
	var order []string
	bPC := 0
	k.Spawn("b", &stepper{func(p *des.Proc) bool {
		switch bPC {
		case 0:
			bPC = 1
			if !p.AdvanceArm(2) {
				return false
			}
			fallthrough
		default:
			order = append(order, "b@2")
			return true
		}
	}})
	aPC := 0
	k.Spawn("a", &stepper{func(p *des.Proc) bool {
		switch aPC {
		case 0:
			aPC = 1
			if !p.AdvanceArm(1) {
				return false
			}
			fallthrough
		case 1:
			order = append(order, "a@1")
			aPC = 2
			if !p.AdvanceArm(3) {
				return false
			}
			fallthrough
		default:
			order = append(order, "a@4")
			return true
		}
	}})
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@1", "b@2", "a@4"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 4 {
		t.Fatalf("Now() = %g, want 4", k.Now())
	}
}

func TestSeqTieBreakBySpawnOrder(t *testing.T) {
	k := des.NewKernel()
	var order []string
	for _, name := range []string{"p0", "p1", "p2"} {
		name := name
		pc := 0
		k.Spawn(name, &stepper{func(p *des.Proc) bool {
			switch pc {
			case 0:
				pc = 1
				if !p.AdvanceArm(1) { // all wake at t=1
					return false
				}
				fallthrough
			default:
				order = append(order, name)
				return true
			}
		}})
	}
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"p0", "p1", "p2"} {
		if order[i] != name {
			t.Fatalf("tie-break order %v, want spawn order", order)
		}
	}
}

// TestSeqHaltAndWake: HaltArm parks a machine off the queue until another
// machine wakes it, and the sleeper resumes at the waker's virtual time.
func TestSeqHaltAndWake(t *testing.T) {
	k := des.NewKernel()
	wokeAt := -1.0
	slept := false
	sleeper := k.Spawn("sleeper", &stepper{func(p *des.Proc) bool {
		if !slept {
			slept = true
			p.HaltArm()
			return false
		}
		wokeAt = p.Now()
		return true
	}})
	wPC := 0
	k.Spawn("waker", &stepper{func(p *des.Proc) bool {
		switch wPC {
		case 0:
			wPC = 1
			if !p.AdvanceArm(5) {
				return false
			}
			fallthrough
		default:
			sleeper.Wake()
			return true
		}
	}})
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 5 {
		t.Fatalf("sleeper woke at t=%g, want 5", wokeAt)
	}
}

// TestSeqCondWaitArm: WaitArm queues a machine on a condition until a
// broadcast, the continuation form of the Cond.Wait/Broadcast pair.
func TestSeqCondWaitArm(t *testing.T) {
	k := des.NewKernel()
	var c des.Cond
	ready := false
	var observed []float64
	for i := 0; i < 3; i++ {
		k.Spawn("waiter", &stepper{func(p *des.Proc) bool {
			for !ready { // the usual predicate loop, re-armed per resumption
				c.WaitArm(p)
				return false
			}
			observed = append(observed, p.Now())
			return true
		}})
	}
	sPC := 0
	k.Spawn("signaller", &stepper{func(p *des.Proc) bool {
		switch sPC {
		case 0:
			sPC = 1
			if !p.AdvanceArm(2) {
				return false
			}
			fallthrough
		default:
			ready = true
			c.Broadcast()
			return true
		}
	}})
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if len(observed) != 3 {
		t.Fatalf("%d waiters woke, want 3", len(observed))
	}
	for _, at := range observed {
		if at != 2 {
			t.Fatalf("waiter woke at t=%g, want 2", at)
		}
	}
}

// TestSeqGoReusesPooledRunner mirrors TestGoReusesPooledRunner: strictly
// sequential Go tasks must share one pooled runner process.
func TestSeqGoReusesPooledRunner(t *testing.T) {
	k := des.NewKernel()
	const tasks = 100
	ran := 0
	newTask := func() des.Machine {
		pc := 0
		return &stepper{func(p *des.Proc) bool {
			switch pc {
			case 0:
				pc = 1
				if !p.AdvanceArm(1) {
					return false
				}
				fallthrough
			default:
				ran++
				return true
			}
		}}
	}
	i, dPC := 0, 0
	k.Spawn("driver", &stepper{func(p *des.Proc) bool {
		for i < tasks {
			switch dPC {
			case 0:
				k.Go("task", newTask())
				dPC = 1
				if !p.AdvanceArm(2) { // task finishes before the next is issued
					return false
				}
				fallthrough
			default:
				i++
				dPC = 0
			}
		}
		return true
	}})
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if ran != tasks {
		t.Fatalf("ran %d tasks, want %d", ran, tasks)
	}
	if got := k.Procs(); got != 2 { // driver + one pooled runner
		t.Fatalf("spawned %d processes, want 2 (pool not reused)", got)
	}
}

func TestSeqDeadlockDetection(t *testing.T) {
	k := des.NewKernel()
	for _, name := range []string{"stuck1", "stuck2"} {
		k.Spawn(name, &stepper{func(p *des.Proc) bool {
			p.HaltArm()
			return false
		}})
	}
	err := k.Run(math.Inf(1))
	de, ok := err.(*des.DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if len(de.Procs) != 2 {
		t.Fatalf("deadlocked procs = %v, want 2", de.Procs)
	}
	if !strings.Contains(de.Error(), "stuck1") {
		t.Fatalf("error %q does not name the stuck process", de.Error())
	}
}

func TestSeqPanicBecomesRunFailure(t *testing.T) {
	k := des.NewKernel()
	bPC := 0
	k.Spawn("boom", &stepper{func(p *des.Proc) bool {
		switch bPC {
		case 0:
			bPC = 1
			if !p.AdvanceArm(1) {
				return false
			}
			fallthrough
		default:
			panic("kaboom")
		}
	}})
	i := 0
	k.Spawn("bystander", &stepper{func(p *des.Proc) bool {
		for i < 100 {
			i++
			if !p.AdvanceArm(1) {
				return false
			}
		}
		return true
	}})
	err := k.Run(math.Inf(1))
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Run() = %v, want propagated panic", err)
	}
	if k.Err() == nil {
		t.Fatal("kernel did not record the failure")
	}
}

func TestSeqRunUntilHorizonAndResume(t *testing.T) {
	k := des.NewKernel()
	steps := 0
	k.Spawn("ticker", &stepper{func(p *des.Proc) bool {
		for steps < 10 {
			if !p.AdvanceArm(1) {
				return false
			}
			steps++
		}
		return true
	}})
	if err := k.Run(3.5); err != nil {
		t.Fatal(err)
	}
	if steps != 3 {
		t.Fatalf("steps at horizon = %d, want 3", steps)
	}
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if steps != 10 {
		t.Fatalf("steps after resume = %d, want 10", steps)
	}
}

// TestSeqPreCancelledContext: the upfront cancellation check holds for a
// hand-written machine — it never steps.
func TestSeqPreCancelledContext(t *testing.T) {
	k := des.NewKernel()
	ran := false
	k.Spawn("p", &stepper{func(p *des.Proc) bool { ran = true; return true }})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k.SetContext(ctx)
	err := k.Run(math.Inf(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("machine stepped under a pre-cancelled context")
	}
}

// TestSeqCancelStopsDispatch cancels mid-run: two machines ping-pong
// through the event queue and the scheduler loop must stop within one
// poll interval of the cancellation.
func TestSeqCancelStopsDispatch(t *testing.T) {
	const total = 100 * des.CtxPollInterval
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	k := des.NewKernel()
	k.SetContext(ctx)
	steps := 0
	k.Spawn("a", &stepper{func(p *des.Proc) bool {
		for steps < total {
			if steps == 10 {
				cancel()
			}
			steps++
			if !p.AdvanceArm(1) {
				return false
			}
		}
		return true
	}})
	i := 0
	k.Spawn("b", &stepper{func(p *des.Proc) bool {
		for i < total {
			i++
			if !p.AdvanceArm(1) {
				return false
			}
		}
		return true
	}})
	err := k.Run(math.Inf(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if steps >= total {
		t.Fatalf("machine completed all %d steps despite cancellation", total)
	}
	if steps > 10+2*des.CtxPollInterval {
		t.Fatalf("run continued for %d steps after cancelling at step 10", steps)
	}
}
