package api

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"hybridperf/internal/core"
	"hybridperf/internal/machine"
	"hybridperf/internal/pareto"
)

// FuzzAppendBatchResult holds the batch result renderer to json.Marshal
// for arbitrary finite floats and ints. The seed corpus (the 'f'/'e'
// switch at 1e-6 and 1e21, the e-07 trim, subnormals, -0, extremes) is
// in testdata/fuzz/FuzzAppendBatchResult.
func FuzzAppendBatchResult(f *testing.F) {
	f.Add(4, 8, 1.8, 12.5, 3000.25, 240.02, 0.75, uint8(0))
	f.Fuzz(func(t *testing.T, nodes, cores int, freq, timeS, energyJ, powerW, ucr float64, names uint8) {
		p := Prediction{
			Config:  Config{Nodes: nodes, Cores: cores, FreqGHz: freq},
			TimeS:   timeS,
			EnergyJ: energyJ,
			PowerW:  powerW,
			UCR:     ucr,
		}
		if !p.Finite() {
			t.Skip("json.Marshal rejects non-finite floats")
		}
		systems, programs := []string{"xeon", "arm"}, []string{"SP", "CP", "LB", "FT"}
		system, program := systems[int(names)%len(systems)], programs[int(names/2)%len(programs)]
		class := []string{"S", "A", "C"}[int(names)%3]
		want := MustJSON(BatchResult{System: system, Program: program, Prediction: p})
		got := AppendBatchResult([]byte("prefix"), system, program, p)
		if string(got[len("prefix"):]) != string(want) {
			t.Fatalf("rendered\n%s\njson.Marshal\n%s", got[len("prefix"):], want)
		}
		// The other forms a prediction is rendered in: a frontier point or
		// a deadline/budget pick of a sweep, and a /v1/predict answer.
		if got, want := AppendPrediction(nil, p), MustJSON(p); !bytes.Equal(got, want) {
			t.Fatalf("point rendered\n%s\njson.Marshal\n%s", got, want)
		}
		wantPredict := append(MustJSON(PredictResponse{System: system, Program: program, Class: class, Prediction: p}), '\n')
		if got := AppendPredictResponse(nil, system, program, class, p); !bytes.Equal(got, wantPredict) {
			t.Fatalf("predict answer rendered\n%s\njson.Marshal\n%s", got, wantPredict)
		}
		// A gateway's sub-batch carrying the same coordinates.
		tuples := []BatchTuple{{System: system, Program: program, Nodes: nodes, Cores: cores, FreqGHz: freq},
			{System: program, Program: system, Nodes: cores, Cores: nodes, FreqGHz: -freq}}
		wantReq := MustJSON(BatchRequest{Class: class, Engine: Engine, Workers: nodes, Tuples: tuples})
		if got := AppendBatchRequest(nil, class, Engine, nodes, tuples); !bytes.Equal(got, wantReq) {
			t.Fatalf("sub-batch rendered\n%s\njson.Marshal\n%s", got, wantReq)
		}
		// The gateway's scanner finds the result in a rendered answer, with
		// the very floats that were rendered.
		doc, cost := RenderBatch(nil, class, 1, 2, func(int) BatchResult {
			return BatchResult{System: system, Program: program, Prediction: p}
		})
		frags, err := ScanBatchResults(doc.Body, nil)
		if err != nil || len(frags) != 2 {
			t.Fatalf("scanning %s: %d fragments, %v", doc.Body, len(frags), err)
		}
		for _, f := range frags {
			if string(doc.Body[f.Start:f.End]) != string(want) {
				t.Fatalf("scanned fragment %s, rendered %s", doc.Body[f.Start:f.End], want)
			}
			if math.Float64bits(f.TimeS) != math.Float64bits(p.TimeS) || math.Float64bits(f.EnergyJ) != math.Float64bits(p.EnergyJ) {
				t.Fatalf("scanned time %v energy %v, rendered %v %v", f.TimeS, f.EnergyJ, p.TimeS, p.EnergyJ)
			}
		}
		if sum := frags[0].TimeS + frags[1].TimeS; math.Float64bits(sum) != math.Float64bits(cost.SimSeconds) {
			t.Fatalf("scanned times sum to %v, the answer's cost to %v", sum, cost.SimSeconds)
		}
	})
}

// fillDistinct sets every field reachable from v to a value no other
// field gets, so a field decoded into the wrong place, or not at all,
// shows as a difference. Slices get two elements.
func fillDistinct(t *testing.T, v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), next)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("v%d", *next))
	case reflect.Int:
		v.SetInt(int64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	case reflect.Bool:
		v.SetBool(*next%2 == 1)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for j := 0; j < s.Len(); j++ {
			fillDistinct(t, s.Index(j), next)
		}
		v.Set(s)
	default:
		t.Fatalf("fillDistinct: no value for %s", v.Type())
	}
}

// checkEveryField decodes the json.Marshal form of a request with every
// field set, and wants it back exactly.
func checkEveryField[T any](t *testing.T, decode func([]byte, *T) error) {
	t.Helper()
	var want, got T
	next := 0
	fillDistinct(t, reflect.ValueOf(&want).Elem(), &next)
	body := MustJSON(want)
	if err := decode(body, &got); err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %s to %+v", body, got)
	}
}

// TestDecodersCoverEveryField: the field names come from the json tags,
// and each decoder passes every field's address in declaration order. A
// field added to a request struct but not to its decoder fails here, not
// as a 400 in production; the fuzz seeds only name today's fields.
func TestDecodersCoverEveryField(t *testing.T) {
	checkEveryField(t, DecodeBatch)
	checkEveryField(t, DecodePredict)
	checkEveryField(t, DecodeSweep)
	checkEveryField(t, DecodeAdvise)
}

// TestAppendBatchResultCoversPredictionJSON: AppendBatchResult writes
// every field of Prediction, in json.Marshal's order, so a field added
// there cannot go missing from the batch answer — nor, through
// AppendPrediction and AppendPredictResponse, from a sweep's points or
// a predict answer (json.NewEncoder's trailing newline included).
func TestAppendBatchResultCoversPredictionJSON(t *testing.T) {
	var p Prediction
	next := 0
	fillDistinct(t, reflect.ValueOf(&p).Elem(), &next)
	want := MustJSON(BatchResult{System: "xeon", Program: "SP", Prediction: p})
	if got := AppendBatchResult(nil, "xeon", "SP", p); !bytes.Equal(got, want) {
		t.Errorf("rendered\n%s\njson.Marshal\n%s", got, want)
	}
	if got, want := AppendPrediction(nil, p), MustJSON(p); !bytes.Equal(got, want) {
		t.Errorf("point rendered\n%s\njson.Marshal\n%s", got, want)
	}
	want = append(MustJSON(PredictResponse{System: "arm", Program: "LB", Class: "C", Prediction: p}), '\n')
	if got := AppendPredictResponse(nil, "arm", "LB", "C", p); !bytes.Equal(got, want) {
		t.Errorf("predict answer rendered\n%s\njson.Marshal\n%s", got, want)
	}
}

// TestAppendBatchRequestCoversRequestJSON: the gateway's sub-batch
// encoder writes every field of BatchRequest and BatchTuple, in
// json.Marshal's order.
func TestAppendBatchRequestCoversRequestJSON(t *testing.T) {
	var req BatchRequest
	next := 0
	fillDistinct(t, reflect.ValueOf(&req).Elem(), &next)
	want := MustJSON(req)
	if got := AppendBatchRequest(nil, req.Class, req.Engine, req.Workers, req.Tuples); !bytes.Equal(got, want) {
		t.Errorf("rendered\n%s\njson.Marshal\n%s", got, want)
	}
}

// TestRenderSweepMatchesJSON: a sweep answer is json.Marshal's rendering
// of its summary — every field, the deadline and budget picks present
// or omitted — with the frontier array appended, as the reflection
// renderer it replaced wrote it.
func TestRenderSweepMatchesJSON(t *testing.T) {
	var points []pareto.Point
	for i, e := range []float64{900, 400, 650, 300.5, 1e-7} {
		cfg := machine.Config{Nodes: 1 << i, Cores: 2 + i, Freq: 1.2e9 + 3e8*float64(i%3)}
		points = append(points, pareto.Point{Cfg: cfg, Pred: core.Prediction{
			Cfg: cfg, T: 10 / float64(i+1), E: e, UCR: 0.125 * float64(i),
		}})
	}
	front := pareto.Frontier(points)
	for _, tc := range []struct{ deadline, budget float64 }{{0, 0}, {4, 0}, {0, 700}, {1e9, 1e12}, {1e-9, 1e-9}} {
		sum := SweepSummary{System: "xeon", Program: "SP", Class: "S", Configs: len(points)}
		doc, cost, err := RenderSweep(sum, points, front, tc.deadline, tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		want := SweepSummary{System: "xeon", Program: "SP", Class: "S", Configs: len(points), Points: len(front)}
		if p, ok := pareto.MinEnergyWithinDeadline(points, tc.deadline); ok && tc.deadline > 0 {
			pj := ToPrediction(p.Pred)
			want.Deadline = &pj
		}
		if p, ok := pareto.MinTimeWithinBudget(points, tc.budget); ok && tc.budget > 0 {
			pj := ToPrediction(p.Pred)
			want.Budget = &pj
		}
		frontier := make([]Prediction, len(front))
		var wantCost Cost
		for i, p := range front {
			frontier[i] = ToPrediction(p.Pred)
			wantCost.add(frontier[i])
		}
		wantBody := append(MustJSON(struct {
			SweepSummary
			Frontier []Prediction `json:"frontier"`
		}{want, frontier}), '\n')
		if !bytes.Equal(doc.Body, wantBody) {
			t.Errorf("deadline %g budget %g: rendered\n%s\njson.Marshal\n%s", tc.deadline, tc.budget, doc.Body, wantBody)
		}
		if cost != wantCost {
			t.Errorf("cost %+v, want %+v", cost, wantCost)
		}
	}
	bad := append([]pareto.Point(nil), points...)
	bad[0].Pred.T = math.Inf(1)
	if _, _, err := RenderSweep(SweepSummary{}, bad, bad[:1], 0, 0); err == nil {
		t.Error("rendered a non-finite frontier point")
	}
}

// TestScanBatchResultsRejects: a shard answer the gateway could not
// splice safely — anything but RenderBatch's exact layout — is an error,
// never a fragment.
func TestScanBatchResultsRejects(t *testing.T) {
	res := `{"system":"xeon","program":"SP","config":{"nodes":1,"cores":1,"freq_ghz":1.8},"time_s":2,"energy_j":3,"power_w":1.5,"ucr":0}`
	head := `{"class":"A","count":2,"groups":1,"results":[`
	good := head + res + "," + res + "]}\n"
	frags, err := ScanBatchResults([]byte(good), nil)
	if err != nil || len(frags) != 2 {
		t.Fatalf("good answer: %+v, %v", frags, err)
	}
	for _, f := range frags {
		if good[f.Start:f.End] != res || f.TimeS != 2 || f.EnergyJ != 3 {
			t.Errorf("fragment %+v: %s", f, good[f.Start:f.End])
		}
	}
	if frags, err := ScanBatchResults([]byte(head+"]}\n"), nil); err != nil || len(frags) != 0 {
		t.Errorf("empty answer: %+v, %v", frags, err)
	}
	for name, body := range map[string]string{
		"empty":               "",
		"truncated":           good[:len(good)/2],
		"no final newline":    strings.TrimSuffix(good, "\n"),
		"trailing data":       good + "{}",
		"error envelope":      `{"error":"boom","status":500}` + "\n",
		"shard errors":        `{"class":"A","count":0,"groups":0,"shard_errors":[],"results":[]}` + "\n",
		"keys reordered":      head + strings.Replace(res, `"time_s":2,"energy_j":3`, `"energy_j":3,"time_s":2`, 1) + "]}\n",
		"whitespace":          head + strings.Replace(res, `"time_s":2`, `"time_s": 2`, 1) + "]}\n",
		"newline in result":   head + strings.Replace(res, `,"ucr"`, ",\n\"ucr\"", 1) + "]}\n",
		"missing comma":       head + res + res + "]}\n",
		"trailing comma":      head + res + ",]}\n",
		"element a number":    head + "1]}\n",
		"time a string":       head + strings.Replace(res, `"time_s":2`, `"time_s":"2"`, 1) + "]}\n",
		"time overflows":      head + strings.Replace(res, `"time_s":2`, `"time_s":1e999`, 1) + "]}\n",
		"bad number":          head + strings.Replace(res, `"ucr":0`, `"ucr":01`, 1) + "]}\n",
		"bad string escape":   head + strings.Replace(res, `"xeon"`, `"x\qn"`, 1) + "]}\n",
		"control char":        head + strings.Replace(res, `"xeon"`, "\"xe\x01on\"", 1) + "]}\n",
		"unterminated string": head + `{"system":"xeon`,
	} {
		if frags, err := ScanBatchResults([]byte(body), nil); err == nil {
			t.Errorf("%s: accepted %q as %+v", name, body, frags)
		}
	}
}

// TestCatalogueNamesNeedNoEscaping pins what makes rendering names raw
// safe: json.Marshal writes every catalogue name (and so every name a
// validated request can carry) as the name itself, quoted.
func TestCatalogueNamesNeedNoEscaping(t *testing.T) {
	for name := range wireNames {
		if got, want := string(MustJSON(name)), `"`+name+`"`; got != want {
			t.Errorf("json.Marshal(%q) = %s, want %s", name, got, want)
		}
	}
}

// TestReadBodyMaxMatchesReadAll: ReadBody presizing from Content-Length changes
// no outcome. A body shorter or longer than declared, or of unknown
// length, reads exactly as io.ReadAll reads it, and over the limit is
// still 413.
func TestReadBodyMaxMatchesReadAll(t *testing.T) {
	const limit = 1000
	for _, tc := range []struct {
		name     string
		body     string
		declared int64
	}{
		{"exact", strings.Repeat("a", 700), 700},
		{"shorter than declared", strings.Repeat("b", 10), 600},
		{"longer than declared", strings.Repeat("c", 900), 3},
		{"chunked", strings.Repeat("d", 999), -1},
		{"empty", "", 0},
		{"at the limit", strings.Repeat("e", limit), limit},
		{"over the limit, declared", strings.Repeat("f", limit+1), limit + 1},
		{"over the limit, chunked", strings.Repeat("g", 3*limit), -1},
		{"over the limit, declared short", strings.Repeat("h", limit+5), 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newReq := func() *http.Request {
				r := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(tc.body))
				r.ContentLength = tc.declared
				return r
			}
			want, wantErr := io.ReadAll(http.MaxBytesReader(httptest.NewRecorder(), newReq().Body, limit))
			rec := httptest.NewRecorder()
			got, ok := ReadBody(rec, newReq(), limit)
			if ok != (wantErr == nil) {
				t.Fatalf("ok=%v, io.ReadAll err %v", ok, wantErr)
			}
			var tooBig *http.MaxBytesError
			if !ok {
				if errors.As(wantErr, &tooBig) && rec.Code != http.StatusRequestEntityTooLarge {
					t.Errorf("over the limit: status %d, want 413", rec.Code)
				}
				return
			}
			if !bytes.Equal(got, want) {
				t.Errorf("read %d bytes, io.ReadAll %d", len(got), len(want))
			}
		})
	}
}

// stallReader is a body that has not sent a byte yet: it records the
// buffer offered to its first Read and ends the body there.
type stallReader struct{ offered int }

func (r *stallReader) Read(p []byte) (int, error) {
	if r.offered == 0 {
		r.offered = len(p)
	}
	return 0, io.EOF
}

// TestReadBodyMaxBoundsPresize: a declared Content-Length buys at most
// maxBodyPresize bytes of buffer before the body's bytes arrive, on the
// largest route's limit; a body past that still reads whole.
func TestReadBodyMaxBoundsPresize(t *testing.T) {
	body := &stallReader{}
	r := httptest.NewRequest(http.MethodPost, "/v1/batch", nil)
	r.Body = io.NopCloser(body)
	r.ContentLength = MaxBatchBodyBytes
	if got, ok := ReadBody(httptest.NewRecorder(), r, MaxBatchBodyBytes); !ok || len(got) != 0 {
		t.Fatalf("ok=%v, %d bytes", ok, len(got))
	}
	if body.offered > maxBodyPresize+1 {
		t.Errorf("declared %d bytes, got a %d-byte buffer before any arrived; bound %d",
			MaxBatchBodyBytes, body.offered, maxBodyPresize+1)
	}

	big := bytes.Repeat([]byte("x"), 3*maxBodyPresize+7)
	r = httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(big))
	got, ok := ReadBody(httptest.NewRecorder(), r, MaxBatchBodyBytes)
	if !ok || !bytes.Equal(got, big) {
		t.Errorf("a %d-byte body past the presize: ok=%v, read %d bytes", len(big), ok, len(got))
	}
}
