package exec

import (
	"reflect"
	"testing"

	"hybridperf/internal/trace"
)

// TestPhaseSinkInvisible: attaching a PhaseSink (the distributed-tracing
// hook that hands a sampled request the engine's per-rank phase
// timeline) must not perturb the simulation — every golden case
// reproduces bit for bit with the sink attached — while the sink
// receives a non-empty labelled timeline and Result.Trace stays empty
// unless Trace was requested on its own.
func TestPhaseSinkInvisible(t *testing.T) {
	for name, req := range goldenCases() {
		name, req := name, req
		t.Run(name, func(t *testing.T) {
			base, err := Run(req)
			if err != nil {
				t.Fatal(err)
			}
			var label string
			var events []trace.Event
			sunk := req
			sunk.PhaseSink = func(l string, evs []trace.Event) { label, events = l, evs }
			res, err := Run(sunk)
			if err != nil {
				t.Fatal(err)
			}
			if res.Time != base.Time || res.Energy != base.Energy ||
				res.MeasuredEnergy != base.MeasuredEnergy || res.Comm != base.Comm {
				t.Fatalf("PhaseSink perturbed %s:\n got  %+v\n want %+v", name, res, base)
			}
			if label == "" || len(events) == 0 {
				t.Fatalf("sink received label %q with %d events, want a labelled non-empty timeline", label, len(events))
			}
			// The sink forces the recorder on, but the result-side trace
			// stays gated on req.Trace: sampling a request must not change
			// what an API caller gets back.
			if len(res.Trace) != 0 {
				t.Errorf("PhaseSink without Trace populated Result.Trace (%d events)", len(res.Trace))
			}
			// With Trace also set, the sink and the result see the same
			// timeline.
			both := sunk
			both.Trace = true
			res2, err := Run(both)
			if err != nil {
				t.Fatal(err)
			}
			if res2.Time != base.Time {
				t.Fatalf("PhaseSink+Trace perturbed %s", name)
			}
			if len(res2.Trace) != len(events) {
				t.Errorf("sink saw %d events, Result.Trace has %d", len(events), len(res2.Trace))
			}
			for i := range res2.Trace {
				if res2.Trace[i] != events[i] {
					t.Fatalf("event %d differs between sink and Result.Trace", i)
				}
			}
		})
	}
}

// TestPhaseTotalsMatchSink: PhaseTotals, which sums the phases as they
// happen without storing the timeline, reports exactly trace.Summary of
// the timeline PhaseSink receives for the same run — bit for bit, on
// every golden case — and perturbs nothing.
func TestPhaseTotalsMatchSink(t *testing.T) {
	for name, req := range goldenCases() {
		var events []trace.Event
		sunk := req
		sunk.PhaseSink = func(_ string, evs []trace.Event) { events = evs }
		base, err := Run(sunk)
		if err != nil {
			t.Fatal(err)
		}
		var totals map[int]map[trace.Kind]float64
		summed := req
		summed.PhaseTotals = func(tot map[int]map[trace.Kind]float64) { totals = tot }
		res, err := Run(summed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Time != base.Time || res.Energy != base.Energy || res.MeasuredEnergy != base.MeasuredEnergy {
			t.Fatalf("%s: PhaseTotals perturbed the run", name)
		}
		if len(totals) == 0 || !reflect.DeepEqual(totals, trace.Summary(events)) {
			t.Fatalf("%s: PhaseTotals %v, want trace.Summary of the sink timeline %v",
				name, totals, trace.Summary(events))
		}
		if len(res.Trace) != 0 {
			t.Errorf("%s: PhaseTotals populated Result.Trace", name)
		}
	}
}
