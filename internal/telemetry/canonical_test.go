package telemetry

import (
	"testing"

	"hybridperf/internal/api"
	"hybridperf/internal/machine"
)

func ct(system, program string, nodes, cores int, freq float64) api.Tuple {
	return api.Tuple{System: system, Program: program,
		Cfg: machine.Config{Nodes: nodes, Cores: cores, Freq: freq}}
}

// TestCanonicalizeTuples: sorting is total over all five coordinates and
// duplicates collapse, so any permutation (with repeats) of one tuple set
// canonicalises to the same list.
func TestCanonicalizeTuples(t *testing.T) {
	a := ct("arm", "CP", 1, 2, 1.4e9)
	b := ct("arm", "CP", 1, 2, 1.6e9)
	c := ct("arm", "LB", 1, 1, 1.4e9)
	d := ct("xeon", "SP", 4, 8, 1.8e9)
	want := []api.Tuple{a, b, c, d}

	perms := [][]api.Tuple{
		{a, b, c, d},
		{d, c, b, a},
		{c, a, d, b},
		{d, d, a, c, b, a, b, c}, // repeats collapse
	}
	for i, p := range perms {
		got := api.Canonicalize(append([]api.Tuple(nil), p...))
		if len(got) != len(want) {
			t.Fatalf("perm %d: %d tuples, want %d: %+v", i, len(got), len(want), got)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("perm %d: tuple %d = %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
}

// TestBatchCacheKeyCanonical: reordered and duplicated tuple lists produce
// one key; any coordinate change produces a different key.
func TestBatchCacheKeyCanonical(t *testing.T) {
	base := []api.Tuple{ct("xeon", "SP", 1, 1, 1.8e9), ct("xeon", "SP", 2, 4, 2.0e9)}
	shuffled := []api.Tuple{base[1], base[0], base[0], base[1]}
	k1 := batchCacheKey("A", api.Canonicalize(append([]api.Tuple(nil), base...)))
	k2 := batchCacheKey("A", api.Canonicalize(shuffled))
	if k1 != k2 {
		t.Errorf("shuffled+duplicated tuple list changed the key:\n%s\n%s", k1, k2)
	}
	variants := [][]api.Tuple{
		{base[0]},                                // fewer tuples
		{base[0], ct("xeon", "SP", 2, 4, 2.2e9)}, // different freq
		{base[0], ct("xeon", "SP", 2, 5, 2.0e9)}, // different cores
		{base[0], ct("xeon", "SP", 3, 4, 2.0e9)}, // different nodes
		{base[0], ct("xeon", "LB", 2, 4, 2.0e9)}, // different program
		{base[0], ct("arm", "SP", 2, 4, 2.0e9)},  // different system
	}
	seen := map[string]int{k1: -1}
	for i, v := range variants {
		k := batchCacheKey("A", api.Canonicalize(v))
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with variant %d", i, prev)
		}
		seen[k] = i
	}
	if k := batchCacheKey("B", api.Canonicalize(append([]api.Tuple(nil), base...))); k == k1 {
		t.Error("class change did not change the key")
	}
}

// TestSweepCacheKeyCanonical: the sweep key separates every knob that
// changes the answer and nothing else.
func TestSweepCacheKeyCanonical(t *testing.T) {
	base := sweepCacheKey("xeon", "SP", "A", 16, true, 0, 0)
	if again := sweepCacheKey("xeon", "SP", "A", 16, true, 0, 0); again != base {
		t.Error("identical sweep coordinates keyed differently")
	}
	variants := []string{
		sweepCacheKey("arm", "SP", "A", 16, true, 0, 0),
		sweepCacheKey("xeon", "LB", "A", 16, true, 0, 0),
		sweepCacheKey("xeon", "SP", "B", 16, true, 0, 0),
		sweepCacheKey("xeon", "SP", "A", 8, true, 0, 0),
		sweepCacheKey("xeon", "SP", "A", 16, false, 0, 0),
		sweepCacheKey("xeon", "SP", "A", 16, true, 1.5, 0),
		sweepCacheKey("xeon", "SP", "A", 16, true, 0, 2.5),
	}
	seen := map[string]int{base: -1}
	for i, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("sweep variant %d collides with %d: %q", i, prev, k)
		}
		seen[k] = i
	}
}
