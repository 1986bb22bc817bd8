package des_test

import (
	"math"
	"testing"

	"hybridperf/internal/des"
	"hybridperf/internal/des/destest"
)

func TestCondBroadcastWakesAll(t *testing.T) {
	k := des.NewKernel()
	var c des.Cond
	woken := 0
	for i := 0; i < 4; i++ {
		waited := false
		k.Spawn("waiter", destest.Script(
			destest.Wait(&c, func() bool { w := waited; waited = true; return w }),
			destest.Do(func(*des.Proc) { woken++ }),
		))
	}
	k.Spawn("caster", destest.Script(
		destest.Advance(1),
		destest.Do(func(*des.Proc) {
			if c.Waiting() != 4 {
				t.Errorf("Waiting() = %d, want 4", c.Waiting())
			}
			c.Broadcast()
		}),
	))
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if woken != 4 {
		t.Fatalf("woken = %d, want 4", woken)
	}
	if c.Waiting() != 0 {
		t.Fatalf("Waiting() after broadcast = %d", c.Waiting())
	}
}

func TestCondPredicateLoop(t *testing.T) {
	k := des.NewKernel()
	var c des.Cond
	value := 0
	var got int
	k.Spawn("consumer", destest.Script(
		destest.Wait(&c, func() bool { return value >= 3 }),
		destest.Do(func(*des.Proc) { got = value }),
	))
	k.Spawn("producer", destest.Script(destest.Repeat(3,
		destest.Advance(1),
		destest.Do(func(*des.Proc) { value++; c.Broadcast() }),
	)))
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("consumer saw %d, want 3", got)
	}
}
