package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"

	"hybridperf/internal/api"
)

// Request canonicalisation maps every JSON body that asks for the same
// work to one cache key, so the response cache and its singleflight
// collapse see through syntactic variation: reordered JSON keys (erased
// by decoding), explicitly-spelled defaults (class "" vs "A", freq_ghz 0
// vs f_max, max_nodes 0 vs the testbed size), duplicate and reordered
// batch tuples. Knobs that change only how the answer is computed — never
// what it is — are excluded: workers (wall-clock only) and engine (a
// no-op alias), so requests differing only in those share one entry.
//
// The unit separator (0x1f) joins fields; it cannot appear in the
// validated system/program/class names the keys carry.

// canonFloat renders a float64 with the shortest round-trippable form, so
// two requests naming the same value canonicalise identically.
func canonFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sweepCacheKey canonicalises a /v1/sweep request. Callers pass resolved
// values: class defaulted, maxNodes resolved against the profile.
func sweepCacheKey(system, program, class string, maxNodes int, pow2 bool, deadlineS, budgetJ float64) string {
	return strings.Join([]string{
		"sweep", system, program, class,
		strconv.Itoa(maxNodes), strconv.FormatBool(pow2),
		canonFloat(deadlineS), canonFloat(budgetJ),
	}, "\x1f")
}

// adviseCacheKey canonicalises a /v1/advise request. Callers pass
// resolved values: class defaulted, shape validated against the profile,
// policies canonicalised (suite order, deduplicated) and the makespan
// tolerance resolved to its fraction. Engine and workers are excluded
// for the same reason they are everywhere else: the advice does not
// depend on them.
func adviseCacheKey(system, program, class string, nodes, cores int, policies []string, maxSlowdown float64) string {
	return strings.Join([]string{
		"advise", system, program, class,
		strconv.Itoa(nodes), strconv.Itoa(cores),
		strings.Join(policies, ","), canonFloat(maxSlowdown),
	}, "\x1f")
}

// batchCacheKey canonicalises a /v1/batch request from its canonical
// tuple list (already sorted and deduplicated by api.Canonicalize). Batch bodies can carry
// tens of thousands of tuples, so the key is the SHA-256 of the canonical
// serialisation rather than the serialisation itself — map keys stay
// small and comparisons O(1).
func batchCacheKey(class string, tuples []api.Tuple) string {
	h := sha256.New()
	h.Write([]byte("batch\x1f" + class))
	var b []byte
	for _, t := range tuples {
		b = b[:0]
		b = append(b, 0x1f)
		b = append(b, t.System...)
		b = append(b, 0x1f)
		b = append(b, t.Program...)
		b = append(b, 0x1f)
		b = strconv.AppendInt(b, int64(t.Cfg.Nodes), 10)
		b = append(b, 0x1f)
		b = strconv.AppendInt(b, int64(t.Cfg.Cores), 10)
		b = append(b, 0x1f)
		b = strconv.AppendFloat(b, t.Cfg.Freq, 'g', -1, 64)
		h.Write(b)
	}
	return "batch\x1f" + hex.EncodeToString(h.Sum(nil))
}
