package exec

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"hybridperf/internal/machine"
	"hybridperf/internal/workload"
)

// TestEngineDifferential is the randomised property test behind the
// engine's determinism contract: seeded random (profile, program, nodes,
// cores, frequency, seed) configurations must reproduce the recorded
// randomPins bit for bit — times, energies, communication profile, event
// and process counts, and the digest of counters, trace and engine
// counters. The pins were recorded while a goroutine-based engine still
// ran every case as a differential partner, so they are the values both
// engines agreed on. The generator is seeded, so failures reproduce.
func TestEngineDifferential(t *testing.T) {
	gen := os.Getenv("GOLDEN_GEN") != ""
	profs := []*machine.Profile{machine.XeonE5(), machine.ARMCortexA9(), xeonCrossbar()}
	specs := append(workload.Extended(), imbalancedSpec())
	rnd := rand.New(rand.NewSource(20260808))
	cases := 24
	if testing.Short() {
		cases = 6
	}
	for i := 0; i < cases; i++ {
		prof := profs[rnd.Intn(len(profs))]
		spec := specs[rnd.Intn(len(specs))]
		n := 1 + rnd.Intn(4)
		c := 1 + rnd.Intn(prof.CoresPerNode)
		if c > 4 {
			c = 4
		}
		f := prof.Frequencies[rnd.Intn(len(prof.Frequencies))]
		req := Request{
			Prof:  prof,
			Spec:  spec,
			Class: workload.ClassTest,
			Cfg:   machine.Config{Nodes: n, Cores: c, Freq: f},
			Seed:  rnd.Int63(),
			Trace: true, Metrics: true,
		}
		name := fmt.Sprintf("%02d-%s-%s-%dx%d-%.1fGHz", i, prof.Name, spec.Name, n, c, f/1e9)
		t.Run(name, func(t *testing.T) {
			res, err := Run(req)
			if err != nil {
				t.Fatal(err)
			}
			checkPin(t, gen, name, pinOf(res), randomPins)
		})
	}
}

// checkPin compares a run against its recorded pin, or prints the table
// entry when regenerating.
func checkPin(t *testing.T, gen bool, name string, got runPin, pins map[string]runPin) {
	t.Helper()
	if gen {
		fmt.Print(pinLine(name, got))
		return
	}
	want, ok := pins[name]
	if !ok {
		t.Fatalf("no pin recorded for %s (run with GOLDEN_GEN=1 to record)", name)
	}
	if got != want {
		t.Errorf("%s drifted from its pin:\n got  %+v\n want %+v", name, got, want)
	}
}
