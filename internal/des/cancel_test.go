package des_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"hybridperf/internal/des"
	"hybridperf/internal/des/destest"
)

// TestRunPreCancelledContext: a context cancelled before Run stops the
// run at the upfront check — no process body ever executes, and the
// error unwraps to context.Canceled.
func TestRunPreCancelledContext(t *testing.T) {
	k := des.NewKernel()
	ran := false
	k.Spawn("p", destest.Script(destest.Do(func(*des.Proc) { ran = true })))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k.SetContext(ctx)
	err := k.Run(math.Inf(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("process body ran under a pre-cancelled context")
	}
	if k.Err() == nil {
		t.Fatal("kernel did not record the cancellation")
	}
}

// cancellingTicker is a process advancing one second total times,
// cancelling at step 10 and counting its steps in *steps.
func cancellingTicker(total int, cancel func(), steps *int) des.Machine {
	return destest.Script(destest.Repeat(total,
		destest.Do(func(*des.Proc) {
			if *steps == 10 {
				cancel()
			}
		}),
		destest.Advance(1),
		destest.Do(func(*des.Proc) { *steps++ }),
	))
}

// TestCancelStopsEventDispatch cancels mid-run from inside the
// simulation: two processes ping-pong through the event queue (so every
// step is a real dispatch), one of them cancels partway, and the run
// must stop within one poll interval instead of draining the remaining
// work.
func TestCancelStopsEventDispatch(t *testing.T) {
	const total = 100 * des.CtxPollInterval
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	k := des.NewKernel()
	k.SetContext(ctx)
	steps := 0
	k.Spawn("a", cancellingTicker(total, cancel, &steps))
	k.Spawn("b", destest.Script(destest.Repeat(total, destest.Advance(1))))
	err := k.Run(math.Inf(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if steps >= total {
		t.Fatalf("process completed all %d steps despite cancellation", total)
	}
	// The poll runs every CtxPollInterval steps, so the overshoot past
	// the cancel point is bounded.
	if steps > 10+2*des.CtxPollInterval {
		t.Fatalf("run continued for %d steps after cancelling at step 10", steps)
	}
}

// TestCancelStopsLookaheadFastPath pins the single-process case: a lone
// compute loop advances through the lookahead fast path and dispatches
// almost no events, so the poll must ride AdvanceArm itself for the
// cancellation to land.
func TestCancelStopsLookaheadFastPath(t *testing.T) {
	const total = 100 * des.CtxPollInterval
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	k := des.NewKernel()
	k.SetContext(ctx)
	steps := 0
	k.Spawn("solo", cancellingTicker(total, cancel, &steps))
	err := k.Run(math.Inf(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if steps > 10+2*des.CtxPollInterval {
		t.Fatalf("fast path ran %d steps after cancelling at step 10", steps)
	}
}

// TestUncancelledContextBitIdentical is the determinism half of the
// contract: attaching a live (cancellable, never cancelled) context must
// not perturb the simulation in any observable way.
func TestUncancelledContextBitIdentical(t *testing.T) {
	run := func(ctx context.Context) (float64, uint64) {
		k := des.NewKernel()
		if ctx != nil {
			k.SetContext(ctx)
		}
		for i := 0; i < 4; i++ {
			var ops []destest.Op
			for s := 0; s < 3000; s++ {
				ops = append(ops, destest.Advance(float64(1+(i+s)%7)))
			}
			k.Spawn("p", destest.Script(ops...))
		}
		if err := k.Run(math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		return k.Now(), k.Events()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bareT, bareE := run(nil)
	ctxT, ctxE := run(ctx)
	if bareT != ctxT || bareE != ctxE {
		t.Fatalf("context-bearing run diverged: (t=%g, events=%d) vs (t=%g, events=%d)",
			ctxT, ctxE, bareT, bareE)
	}
}

// TestSetContextBackgroundDisablesPolling: contexts that can never be
// cancelled (nil Done channel) must not arm the poll at all.
func TestSetContextBackgroundDisablesPolling(t *testing.T) {
	k := des.NewKernel()
	k.SetContext(context.Background())
	if k.PollArmed() {
		t.Fatal("Background context armed the cancellation poll")
	}
	k.SetContext(nil)
	if k.PollArmed() {
		t.Fatal("nil context armed the cancellation poll")
	}
}
