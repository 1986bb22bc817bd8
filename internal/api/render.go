package api

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"hybridperf/internal/pareto"
)

// StreamFlushEvery is how many NDJSON lines are written between two
// explicit flushes: frequent enough that a client renders a frontier
// incrementally, rare enough that flushing doesn't dominate large batch
// answers.
const StreamFlushEvery = 32

// Doc is one fully rendered list answer (/v1/batch, /v1/sweep,
// /v1/advise), stored once: the JSON document — the summary's fields,
// then an array of item fragments — plus the offsets of those
// fragments. The NDJSON form, one `{"type":"<item>","<item>":<fragment>}`
// line per item and then `{"type":"summary",<summary fields>}`, is
// derived from the document as it is written (appendLine). So the
// streamed and document forms of one answer carry the same bytes per
// item by construction, and no answer is held twice.
type Doc struct {
	Body   []byte  // full JSON document, trailing newline included
	item   string  // NDJSON type tag of one list item
	sumEnd int     // Body[1:sumEnd] is the summary's fields
	starts []int32 // item i is Body[starts[i] : starts[i+1]-1]; len(starts) = items+1
}

// Size is the memory the document holds.
func (d *Doc) Size() int { return len(d.Body) + 4*len(d.starts) }

// lines is the number of NDJSON lines the answer streams as: one per
// item, then the summary.
func (d *Doc) lines() int { return len(d.starts) }

// appendLine appends NDJSON line i, without its newline.
func (d *Doc) appendLine(b []byte, i int) []byte {
	if i == len(d.starts)-1 {
		b = append(b, `{"type":"summary",`...)
		b = append(b, d.Body[1:d.sumEnd]...)
		return append(b, '}')
	}
	b = append(b, `{"type":"`...)
	b = append(b, d.item...)
	b = append(b, `","`...)
	b = append(b, d.item...)
	b = append(b, `":`...)
	b = append(b, d.Body[d.starts[i]:d.starts[i+1]-1]...)
	return append(b, '}')
}

// Write serves the answer in the shape the client asked for (see
// WantStream): the JSON document, or the NDJSON line sequence derived
// from it, flushed every StreamFlushEvery lines and at the end, and cut
// short once the client is gone.
func (d *Doc) Write(w http.ResponseWriter, r *http.Request) {
	if !WantStream(r) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(d.Body)))
		w.Write(d.Body)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	done := r.Context().Done()
	var line []byte
	for i := 0; i < d.lines(); i++ {
		select {
		case <-done:
			return // client gone: shed the rest of the stream
		default:
		}
		line = append(d.appendLine(line[:0], i), '\n')
		w.Write(line)
		if flusher != nil && (i+1)%StreamFlushEvery == 0 {
			flusher.Flush()
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
}

// spliceItems completes a document whose summary object — without its
// closing brace — is already in b: it appends `,"<listKey>":[` and n
// items rendered by item, closes the document, and records the offsets
// the NDJSON form is derived from.
func spliceItems(b []byte, listKey, itemKey string, n int, item func(b []byte, i int) []byte) Doc {
	d := Doc{item: itemKey, sumEnd: len(b), starts: make([]int32, n+1)}
	b = append(b, `,"`...)
	b = append(b, listKey...)
	b = append(b, `":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		d.starts[i] = int32(len(b))
		b = item(b, i)
	}
	d.starts[n] = int32(len(b) + 1) // one past the closing bracket
	d.Body = append(b, ']', '}', '\n')
	return d
}

// Splice assembles a document from a marshalled summary object and
// per-item fragments: the summary with an appended `"<listKey>":[...]`
// array of the fragments.
func Splice(sum []byte, listKey, itemKey string, frags [][]byte) Doc {
	n := len(sum) + len(listKey) + 8
	for _, f := range frags {
		n += len(f) + 1
	}
	b := make([]byte, 0, n)
	b = append(b, sum[:len(sum)-1]...) // summary object sans closing brace
	return spliceItems(b, listKey, itemKey, len(frags), func(b []byte, i int) []byte {
		return append(b, frags[i]...)
	})
}

// MarshalEach renders one JSON fragment per element.
func MarshalEach[T any](items []T) [][]byte {
	frags := make([][]byte, len(items))
	for i := range items {
		frags[i] = MustJSON(items[i])
	}
	return frags
}

// MustJSON marshals a response fragment that is built from already
// validated data; a marshal failure is a programming error, not a
// request error.
func MustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("api: marshalling response fragment: %v", err))
	}
	return b
}

// Cost is what an answer carries: its prediction count, and the
// simulated seconds and predicted joules they sum to — in the order the
// body lists them, so a client summing the body it received reproduces
// the sums float-exactly.
type Cost struct {
	Predictions int
	SimSeconds  float64
	EnergyJ     float64
}

func (c *Cost) add(p Prediction) {
	c.Predictions++
	c.SimSeconds += p.TimeS
	c.EnergyJ += p.EnergyJ
}

// RenderBatch renders a /v1/batch answer into b: the summary (class,
// result count and group count), then the n results result yields, each
// exactly as json.Marshal renders a BatchResult. The class and names are
// written unescaped: they are validated catalogue names, none of which
// needs escaping (TestCatalogueNamesNeedNoEscaping).
func RenderBatch(b []byte, class string, groups, n int, result func(i int) BatchResult) (Doc, Cost) {
	var cost Cost
	doc := spliceItems(appendBatchSummary(b, class, n, groups, nil), "results", "result", n, func(b []byte, i int) []byte {
		r := result(i)
		cost.add(r.Prediction)
		return AppendBatchResult(b, r.System, r.Program, r.Prediction)
	})
	return doc, cost
}

// SpliceBatch assembles a /v1/batch answer from result fragments that
// are already rendered, as a gateway merge has them: RenderBatch's
// summary, with the shard errors of a partial merge, then the fragments
// in the order given.
func SpliceBatch(class string, groups int, shardErrs []ShardError, frags [][]byte) Doc {
	return Splice(append(appendBatchSummary(nil, class, len(frags), groups, shardErrs), '}'), "results", "result", frags)
}

// appendBatchSummary appends a batch answer's summary object without its
// closing brace. The shard errors of a partial merge are the one part
// rendered by reflection: they carry free-form error text, and only a
// degraded answer has any.
func appendBatchSummary(b []byte, class string, n, groups int, shardErrs []ShardError) []byte {
	b = append(b, `{"class":"`...)
	b = append(b, class...)
	b = append(b, `","count":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"groups":`...)
	b = strconv.AppendInt(b, int64(groups), 10)
	if len(shardErrs) > 0 {
		b = append(b, `,"shard_errors":`...)
		b = append(b, MustJSON(shardErrs)...)
	}
	return b
}

// AppendBatchResult appends one batch result exactly as
// json.Marshal(BatchResult{system, program, p}) renders it; p must be
// Finite.
func AppendBatchResult(b []byte, system, program string, p Prediction) []byte {
	return appendPredictionFields(append(appendNames(b, system, program), ','), p)
}

// appendNames opens an object with its system and program names:
// `{"system":"<system>","program":"<program>"`.
func appendNames(b []byte, system, program string) []byte {
	b = append(b, `{"system":"`...)
	b = append(b, system...)
	b = append(b, `","program":"`...)
	b = append(b, program...)
	return append(b, '"')
}

// AppendPredictResponse appends a /v1/predict answer exactly as
// json.NewEncoder(w).Encode(PredictResponse{...}) writes it, trailing
// newline included; p must be Finite.
func AppendPredictResponse(b []byte, system, program, class string, p Prediction) []byte {
	b = append(appendNames(b, system, program), `,"class":"`...)
	b = append(append(b, class...), `",`...)
	return append(appendPredictionFields(b, p), '\n')
}

// AppendPrediction appends p exactly as json.Marshal renders it; p must
// be Finite.
func AppendPrediction(b []byte, p Prediction) []byte {
	return appendPredictionFields(append(b, '{'), p)
}

// appendPredictionFields appends p's fields and the closing brace of the
// object they end.
func appendPredictionFields(b []byte, p Prediction) []byte {
	b = append(b, `"config":{"nodes":`...)
	b = strconv.AppendInt(b, int64(p.Config.Nodes), 10)
	b = append(b, `,"cores":`...)
	b = strconv.AppendInt(b, int64(p.Config.Cores), 10)
	b = append(b, `,"freq_ghz":`...)
	b = appendFloat(b, p.Config.FreqGHz)
	b = append(b, `},"time_s":`...)
	b = appendFloat(b, p.TimeS)
	b = append(b, `,"energy_j":`...)
	b = appendFloat(b, p.EnergyJ)
	b = append(b, `,"power_w":`...)
	b = appendFloat(b, p.PowerW)
	b = append(b, `,"ucr":`...)
	b = appendFloat(b, p.UCR)
	return append(b, '}')
}

// Finite reports whether every float of p can be rendered as JSON.
func (p Prediction) Finite() bool {
	for _, f := range [...]float64{p.Config.FreqGHz, p.TimeS, p.EnergyJ, p.PowerW, p.UCR} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// RenderSweep renders a /v1/sweep answer from the evaluated points and
// their frontier, exactly as json.Marshal renders sum's fields — with the
// frontier size and, when asked for, the minimum-energy point within the
// deadline and the minimum-time point within the budget filled in —
// followed by the frontier points. A point it would render that is not
// Finite is an error.
func RenderSweep(sum SweepSummary, points, front []pareto.Point, deadlineS, budgetJ float64) (Doc, Cost, error) {
	b := appendNames(make([]byte, 0, 512+160*len(front)), sum.System, sum.Program)
	b = append(b, `,"class":"`...)
	b = append(b, sum.Class...)
	b = append(b, `","configs":`...)
	b = strconv.AppendInt(b, int64(sum.Configs), 10)
	b = append(b, `,"frontier_points":`...)
	b = strconv.AppendInt(b, int64(len(front)), 10)
	finite := true
	pick := func(key string, p pareto.Point) {
		pj := ToPrediction(p.Pred)
		finite = finite && pj.Finite()
		b = append(append(append(b, `,"`...), key...), `":`...)
		b = AppendPrediction(b, pj)
	}
	if deadlineS > 0 {
		if p, ok := pareto.MinEnergyWithinDeadline(points, deadlineS); ok {
			pick("min_energy_within_deadline", p)
		}
	}
	if budgetJ > 0 {
		if p, ok := pareto.MinTimeWithinBudget(points, budgetJ); ok {
			pick("min_time_within_budget", p)
		}
	}
	var cost Cost
	doc := spliceItems(b, "frontier", "point", len(front), func(b []byte, i int) []byte {
		pj := ToPrediction(front[i].Pred)
		finite = finite && pj.Finite()
		cost.add(pj)
		return AppendPrediction(b, pj)
	})
	if !finite {
		return Doc{}, Cost{}, fmt.Errorf("sweep %s/%s: non-finite prediction", sum.System, sum.Program)
	}
	return doc, cost, nil
}
