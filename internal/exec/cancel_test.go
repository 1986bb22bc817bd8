package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hybridperf/internal/des"
	"hybridperf/internal/des/destest"
	"hybridperf/internal/machine"
	"hybridperf/internal/workload"
)

// TestRunPreCancelledContext: a request whose context is already dead
// fails before the kernel is even built.
func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := xeonReq(machine.Config{Nodes: 2, Cores: 2, Freq: 1.8e9})
	req.Ctx = ctx
	_, err := Run(req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
}

// TestRunCancelledMidSimulation cancels from inside the simulation via
// the rankMachine seam: rank 0 cancels after a few steps and then keeps
// computing, so the kernel's cooperative poll has to stop the run.
func TestRunCancelledMidSimulation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := xeonReq(machine.Config{Nodes: 2, Cores: 2, Freq: 1.8e9})
	req.Ctx = ctx
	steps := 0
	req.rankMachine = func(env *workload.Env) (des.Machine, error) {
		rank0 := env.Rank.ID() == 0
		return destest.Script(destest.Repeat(100000,
			destest.Do(func(*des.Proc) {
				if rank0 && steps == 5 {
					cancel()
				}
			}),
			destest.Advance(1e-6),
			destest.Do(func(*des.Proc) {
				if rank0 {
					steps++
				}
			}),
		)), nil
	}
	_, err := Run(req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if steps >= 100000 {
		t.Fatal("rank 0 completed every step despite cancelling at step 5")
	}
}

// TestRunUncancelledContextIdentical: a live but never-cancelled context
// must leave the measurement bit-identical to a context-free run.
func TestRunUncancelledContextIdentical(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := xeonReq(machine.Config{Nodes: 2, Cores: 4, Freq: 1.8e9})
	bare, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	req.Ctx = ctx
	withCtx, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Time != withCtx.Time || bare.MeasuredEnergy != withCtx.MeasuredEnergy {
		t.Fatalf("context-bearing run diverged: T %g vs %g, E %g vs %g",
			withCtx.Time, bare.Time, withCtx.MeasuredEnergy, bare.MeasuredEnergy)
	}
	if bare.Totals != withCtx.Totals {
		t.Fatal("counters differ with a context attached")
	}
	if bare.Engine.Events != withCtx.Engine.Events {
		t.Fatalf("event counts differ: %d vs %d", withCtx.Engine.Events, bare.Engine.Events)
	}
}

// TestRunAggregatesRankErrors: every rank whose process cannot be built
// must appear in the returned error, not just the first one observed.
func TestRunAggregatesRankErrors(t *testing.T) {
	sentinel := errors.New("rank blew up")
	req := xeonReq(machine.Config{Nodes: 4, Cores: 1, Freq: 1.8e9})
	req.rankMachine = func(env *workload.Env) (des.Machine, error) {
		if env.Rank.ID()%2 == 1 {
			return nil, fmt.Errorf("rank %d: %w", env.Rank.ID(), sentinel)
		}
		return destest.Script(destest.Advance(1e-6)), nil
	}
	_, err := Run(req)
	if err == nil {
		t.Fatal("Run swallowed rank failures")
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is lost the cause through the join: %v", err)
	}
	for _, want := range []string{"rank 1", "rank 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("aggregated error %q is missing %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "rank 0") || strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("aggregated error %q names a healthy rank", err)
	}
}

// TestSweepCancelledRequests: cancelling the shared context fails the
// whole sweep — queued requests stop at their upfront check.
func TestSweepCancelledRequests(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var reqs []Request
	for i := 0; i < 6; i++ {
		r := xeonReq(machine.Config{Nodes: 1, Cores: 1, Freq: 1.8e9})
		r.Seed = int64(i)
		r.Ctx = ctx
		reqs = append(reqs, r)
	}
	_, err := Sweep(reqs, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep() = %v, want context.Canceled", err)
	}
}
