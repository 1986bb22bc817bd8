package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"hybridperf/internal/api"
	"hybridperf/internal/machine"
)

// mergeCase is one split batch: a canonical tuple list with a result per
// tuple, its (system, program) groups dealt to owners, and each owner's
// answer as a shard renders it.
type mergeCase struct {
	canon   []api.Tuple
	results []api.BatchResult // results[i] answers canon[i]
	owner   []int             // owner[i] indexes the answer of canon[i]
	answers []shardAnswer
	share   [][]int // share[k] lists the canon indexes owner k answers
}

// fuzzFloat is a finite float64: an arbitrary bit pattern half the time
// (extremes, subnormals, -0), a modest value otherwise.
func fuzzFloat(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(12)-4))
}

// newMergeCase builds a split batch of up to 48 distinct tuples over
// every catalogue pair, dealt to 1–owners owners; owners without a tuple
// are dropped, as the gateway sends them no sub-request.
func newMergeCase(rng *rand.Rand, owners int) mergeCase {
	var tuples []api.Tuple
	systems, programs := []string{"arm", "xeon"}, []string{"BT", "CP", "FT", "LB", "LU", "SP"}
	for n := 1 + rng.Intn(48); len(tuples) < n; {
		tuples = append(tuples, api.Tuple{
			System:  systems[rng.Intn(len(systems))],
			Program: programs[rng.Intn(len(programs))],
			Cfg:     machine.Config{Nodes: 1 + rng.Intn(8), Cores: 1 + rng.Intn(8), Freq: []float64{1.2e9, 1.5e9, 1.8e9}[rng.Intn(3)]},
		})
	}
	var c mergeCase
	c.canon = api.Canonicalize(tuples)
	dealt := map[[2]string]int{}
	slot := map[int]int{} // dealt owner -> answer index
	for i, t := range c.canon {
		pair := [2]string{t.System, t.Program}
		d, ok := dealt[pair]
		if !ok {
			d = rng.Intn(owners)
			dealt[pair] = d
		}
		k, ok := slot[d]
		if !ok {
			k = len(c.share)
			slot[d] = k
			c.share = append(c.share, nil)
		}
		c.owner = append(c.owner, k)
		c.share[k] = append(c.share[k], i)
		c.results = append(c.results, api.BatchResult{System: t.System, Program: t.Program, Prediction: api.Prediction{
			Config:  api.Config{Nodes: t.Cfg.Nodes, Cores: t.Cfg.Cores, FreqGHz: t.Cfg.GHz()},
			TimeS:   fuzzFloat(rng),
			EnergyJ: fuzzFloat(rng),
			PowerW:  fuzzFloat(rng),
			UCR:     fuzzFloat(rng),
		}})
	}
	for k, idx := range c.share {
		c.answers = append(c.answers, shardAnswer{
			peer:   "http://shard-" + string(rune('a'+k)),
			tuples: len(idx),
			body:   c.render(idx).Body,
		})
	}
	return c
}

// render is a shard's answer listing the results at the canon indexes
// idx, as api.RenderBatch renders it.
func (c *mergeCase) render(idx []int) api.Doc {
	groups := 0
	for j, i := range idx {
		if j == 0 || c.canon[i].System != c.canon[idx[j-1]].System || c.canon[i].Program != c.canon[idx[j-1]].Program {
			groups++
		}
	}
	doc, _ := api.RenderBatch(nil, "A", groups, len(idx), func(j int) api.BatchResult { return c.results[idx[j]] })
	return doc
}

// streamed is doc's NDJSON form.
func streamed(doc api.Doc) []byte {
	r := httptest.NewRequest(http.MethodPost, "/v1/batch", nil)
	r.Header.Set("Accept", "application/x-ndjson")
	rec := httptest.NewRecorder()
	doc.Write(rec, r)
	return rec.Body.Bytes()
}

// FuzzGatewayMerge holds the batch merge to its contract, treating shard
// answers as the untrusted bytes they are. Any partition of a canonical
// batch across 1–4 owners, each owner answering as api.RenderBatch
// renders, merges to the single-daemon document, NDJSON stream and cost,
// float for float. One owner's answer replaced by arbitrary bytes, cut
// short, or holding one result too many or too few becomes exactly that
// owner's shard_errors entry, and the rest still merges to a well-formed
// answer carrying every other owner's results: never a panic, and never
// a mis-spliced document. The seed corpus is in
// testdata/fuzz/FuzzGatewayMerge.
func FuzzGatewayMerge(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0), []byte(nil))
	f.Add(int64(7), uint8(3), uint8(1), []byte(`{"results":[{"time_s":1,"energy_j":2}]}`))
	f.Fuzz(func(t *testing.T, seed int64, owners, fault uint8, junk []byte) {
		rng := rand.New(rand.NewSource(seed))
		c := newMergeCase(rng, 1+int(owners)%4)
		all := make([]int, len(c.canon))
		for i := range all {
			all[i] = i
		}
		single := c.render(all)
		_, singleCost := api.RenderBatch(nil, "A", 0, len(all), func(i int) api.BatchResult { return c.results[i] })

		victim := rng.Intn(len(c.answers))
		v := &c.answers[victim]
		switch fault % 5 {
		case 0: // every owner answers
		case 1:
			v.body = junk
		case 2:
			v.body = v.body[:len(junk)%len(v.body)]
		case 3: // one result too many
			v.body = c.render(append(c.share[victim], c.share[victim][0])).Body
		case 4: // one result too few
			v.body = c.render(c.share[victim][1:]).Body
		}
		bodies := make([][]byte, len(c.answers))
		for k, a := range c.answers {
			bodies[k] = bytes.Clone(a.body)
		}

		doc, cost, shardErrs, ok := mergeBatch("A", c.canon, c.owner, c.answers)
		for k, a := range c.answers {
			if !bytes.Equal(a.body, bodies[k]) {
				t.Fatalf("the merge wrote into owner %d's answer", k)
			}
		}
		frags, scanErr := api.ScanBatchResults(v.body, nil)
		if scanErr == nil && len(frags) == len(c.share[victim]) {
			// The victim's answer is still a well-formed answer of the
			// right size (the fault cut only the trailing newline, or the
			// junk is one): nothing fails.
			if !ok || len(shardErrs) != 0 {
				t.Fatalf("a well-formed answer failed the merge: %+v", shardErrs)
			}
			checkWellFormed(t, doc, nil)
			orig := c.render(c.share[victim]).Body
			origFrags, _ := api.ScanBatchResults(orig, nil)
			for j, f := range frags {
				if !bytes.Equal(v.body[f.Start:f.End], orig[origFrags[j].Start:origFrags[j].End]) {
					return // junk that is an answer, with other results
				}
			}
			checkSingle(t, doc, cost, single, singleCost)
			return
		}
		if fault%5 == 0 {
			t.Fatalf("an untouched answer failed to scan: %v", scanErr)
		}
		// The victim failed, and only the victim.
		if len(shardErrs) != 1 || shardErrs[0].Shard != v.peer || shardErrs[0].Tuples != len(c.share[victim]) || v.err == nil {
			t.Fatalf("victim %s (%d tuples): shard_errors %+v, err %v", v.peer, len(c.share[victim]), shardErrs, v.err)
		}
		if len(c.answers) == 1 {
			if ok {
				t.Fatal("merged an answer whose only owner failed")
			}
			return
		}
		if !ok {
			t.Fatal("a surviving owner's results were dropped")
		}
		var survivors []int
		for i, k := range c.owner {
			if k != victim {
				survivors = append(survivors, i)
			}
		}
		want := c.render(survivors)
		var wantResp api.BatchResponse
		if err := json.Unmarshal(want.Body, &wantResp); err != nil {
			t.Fatal(err)
		}
		wantResp.ShardErrors = shardErrs
		checkWellFormed(t, doc, &wantResp)
	})
}

// checkSingle compares a merged answer with the single daemon's.
func checkSingle(t *testing.T, doc api.Doc, cost api.Cost, single api.Doc, singleCost api.Cost) {
	t.Helper()
	if !bytes.Equal(doc.Body, single.Body) {
		t.Fatalf("merged\n%s\nsingle daemon\n%s", doc.Body, single.Body)
	}
	if got, want := streamed(doc), streamed(single); !bytes.Equal(got, want) {
		t.Fatalf("merged NDJSON\n%s\nsingle daemon\n%s", got, want)
	}
	if math.Float64bits(cost.SimSeconds) != math.Float64bits(singleCost.SimSeconds) ||
		math.Float64bits(cost.EnergyJ) != math.Float64bits(singleCost.EnergyJ) || cost.Predictions != singleCost.Predictions {
		t.Fatalf("merged cost %+v, single daemon %+v", cost, singleCost)
	}
}

// checkWellFormed holds a merged answer to well-formed JSON in both
// shapes — the document, and one JSON object per NDJSON line — and, when
// want is given, to exactly want's contents.
func checkWellFormed(t *testing.T, doc api.Doc, want *api.BatchResponse) {
	t.Helper()
	var got api.BatchResponse
	dec := json.NewDecoder(bytes.NewReader(doc.Body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("merged answer is not a batch answer: %v\n%s", err, doc.Body)
	}
	if got.Count != len(got.Results) {
		t.Fatalf("count %d for %d results", got.Count, len(got.Results))
	}
	if want != nil && !reflect.DeepEqual(got, *want) {
		t.Fatalf("merged\n%+v\nwant\n%+v", got, *want)
	}
	lines := strings.Split(strings.TrimSuffix(string(streamed(doc)), "\n"), "\n")
	if len(lines) != len(got.Results)+1 {
		t.Fatalf("%d NDJSON lines for %d results", len(lines), len(got.Results))
	}
	for _, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("NDJSON line is not JSON: %s", l)
		}
	}
}

// TestMergeRelaysFailureOrder: failures are named in shard order, and an
// owner that failed in transport keeps its error text.
func TestMergeRelaysFailureOrder(t *testing.T) {
	var c mergeCase
	for seed := int64(0); len(c.answers) < 3; seed++ {
		c = newMergeCase(rand.New(rand.NewSource(seed)), 4)
	}
	last, first := len(c.answers)-1, 0
	c.answers[last].err = errors.New("dial refused")
	c.answers[first].body = []byte("{")
	_, _, shardErrs, ok := mergeBatch("A", c.canon, c.owner, c.answers)
	if !ok || len(shardErrs) != 2 {
		t.Fatalf("ok %v, shard_errors %+v", ok, shardErrs)
	}
	if shardErrs[0].Shard > shardErrs[1].Shard {
		t.Errorf("shard_errors out of order: %+v", shardErrs)
	}
	if shardErrs[1].Error != "dial refused" {
		t.Errorf("transport failure reported as %q", shardErrs[1].Error)
	}
}
