package destest

import (
	"math"
	"testing"

	"hybridperf/internal/des"
)

// TestOpsResetOnCompletion pins the reuse contract composite ops rely on:
// a nested Repeat (and the Advance inside it) runs afresh in every round
// of the enclosing one, and a Script run twice replays all of its ops.
func TestOpsResetOnCompletion(t *testing.T) {
	k := des.NewKernel()
	rounds := 0
	count := Do(func(*des.Proc) { rounds++ })
	script := Script(Repeat(3, Repeat(2, Advance(1), count)))
	k.Spawn("a", script)
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if rounds != 6 || k.Now() != 6 {
		t.Fatalf("nested Repeat ran %d rounds to t=%g, want 6 to 6", rounds, k.Now())
	}
	k.Spawn("again", script)
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if rounds != 12 || k.Now() != 12 {
		t.Fatalf("rerun Script reached %d rounds at t=%g, want 12 at 12", rounds, k.Now())
	}
}
