package exec

import "testing"

// TestRunAllocBudget pins the allocation cost of one run
// of the BenchmarkRun fixture. The run dispatches ~79k events; a budget of
// 1,000 objects for all of it means no per-event allocation (a resource
// queue that reallocates on every enqueue alone costs ~10k).
func TestRunAllocBudget(t *testing.T) {
	const budget = 1000
	req := runFixture()
	var runErr error
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Run(req); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("%.0f allocs per run (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("exec.Run allocated %.0f objects per run, budget %d", allocs, budget)
	}
}
