package exec

import (
	"os"
	"testing"

	"hybridperf/internal/dvfs"
	"hybridperf/internal/machine"
)

// governorFactories builds one per-rank governor factory per policy for a
// run starting at cfg.Freq on prof's level grid. The phase-predictive
// governor starts unseeded here — pure online learning — so the test also
// exercises the ObservePhases hook.
func governorFactories(t *testing.T, prof *machine.Profile, cfg machine.Config) map[string]func(int) dvfs.Governor {
	t.Helper()
	var levels []float64
	for _, f := range prof.Frequencies {
		if f <= cfg.Freq {
			levels = append(levels, f)
		}
	}
	return map[string]func(int) dvfs.Governor{
		dvfs.PolicyFixed: func(int) dvfs.Governor { return dvfs.Fixed(cfg.Freq) },
		dvfs.PolicySlack: func(int) dvfs.Governor {
			g, err := dvfs.NewInterNodeSlack(levels, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		dvfs.PolicyPhase: func(int) dvfs.Governor {
			g, err := dvfs.NewPhasePredictive(levels, 0, dvfs.PhaseSample{}, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		// The schedule recorder must be transparent: wrapping the slack
		// governor keeps the run on the same trajectory as "slack" above.
		"slack-recorded": func(int) dvfs.Governor {
			g, err := dvfs.NewInterNodeSlack(levels, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			return &dvfs.ScheduleRecorder{G: g}
		},
	}
}

// TestGovernorEngineDifferential pins the governed paths: every governor
// policy, on every golden configuration, must reproduce the recorded
// governedPins bit for bit — times, energies, communication profile,
// event and process counts, and the digest of counters, trace and engine
// counters. The pins were recorded while a goroutine-based engine still
// ran every case as a differential partner.
func TestGovernorEngineDifferential(t *testing.T) {
	gen := os.Getenv("GOLDEN_GEN") != ""
	for name, req := range goldenCases() {
		for policy, factory := range governorFactories(t, req.Prof, req.Cfg) {
			req := req
			req.Governor = factory
			req.Trace = true
			req.Metrics = true
			t.Run(name+"/"+policy, func(t *testing.T) {
				res, err := Run(req)
				if err != nil {
					t.Fatal(err)
				}
				checkPin(t, gen, name+"/"+policy, pinOf(res), governedPins)
				// A Fixed governor at the starting frequency is the static
				// oracle: bit-identical to the ungoverned run.
				if policy == dvfs.PolicyFixed {
					plain := req
					plain.Governor = nil
					resP, err := Run(plain)
					if err != nil {
						t.Fatal(err)
					}
					if res.Time != resP.Time || res.Energy != resP.Energy ||
						res.MeasuredEnergy != resP.MeasuredEnergy || res.Comm != resP.Comm {
						t.Errorf("fixed governor perturbed the ungoverned run:\n got  %+v\n want %+v",
							res, resP)
					}
				}
			})
		}
	}
}
