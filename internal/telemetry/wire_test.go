package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// oracleDecode is the reference the wire decoder is held to: a
// json.Decoder with DisallowUnknownFields, then a check that nothing but
// whitespace follows the first value.
func oracleDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errTrailingData
	}
	return nil
}

// hasDuplicateKey reports whether any object in the well-formed JSON
// body repeats a key, comparing keys case-folded as encoding/json
// matches them to fields.
func hasDuplicateKey(body []byte) bool {
	type frame struct {
		object    bool
		expectKey bool
		keys      []string
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if d, ok := tok.(json.Delim); ok {
			switch d {
			case '{', '[':
				if top != nil && top.object {
					top.expectKey = true // the key after this value
				}
				stack = append(stack, &frame{object: d == '{', expectKey: true})
			default:
				stack = stack[:len(stack)-1]
			}
			continue
		}
		if top == nil || !top.object {
			continue
		}
		if !top.expectKey {
			top.expectKey = true
			continue
		}
		key := tok.(string)
		for _, k := range top.keys {
			if strings.EqualFold(k, key) {
				return true
			}
		}
		top.keys = append(top.keys, key)
		top.expectKey = false
	}
}

// checkDecode holds decode to the oracle on one body: both reject it,
// or both accept it and agree on the value — except that a body
// repeating a key must be rejected.
func checkDecode[T any](t *testing.T, body []byte, decode func([]byte, *T) error) {
	t.Helper()
	var got, want T
	errGot := decode(body, &got)
	errWant := oracleDecode(body, &want)
	switch {
	case errWant != nil:
		if errGot == nil {
			t.Fatalf("accepted %q, which encoding/json rejects: %v", body, errWant)
		}
	case hasDuplicateKey(body):
		if errGot == nil {
			t.Fatalf("accepted %q, which repeats a key", body)
		}
	case errGot != nil:
		t.Fatalf("rejected %q (%v), which encoding/json accepts", body, errGot)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("decoded %q to %#v, encoding/json to %#v", body, got, want)
	}
}

// FuzzBatchDecode holds the /v1/batch decoder to encoding/json. The seed
// corpus is in testdata/fuzz/FuzzBatchDecode.
func FuzzBatchDecode(f *testing.F) {
	f.Add([]byte(`{"class":"A","tuples":[{"system":"xeon","program":"SP","nodes":4,"cores":8,"freq_ghz":1.8}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, decodeBatchRequest)
	})
}

// FuzzRequestDecode holds the /v1/predict, /v1/sweep and /v1/advise
// decoders to encoding/json. The seed corpus is in
// testdata/fuzz/FuzzRequestDecode.
func FuzzRequestDecode(f *testing.F) {
	f.Add([]byte(`{"system":"xeon","program":"SP","class":"S","nodes":4,"cores":8,"freq_ghz":1.8}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, decodePredictRequest)
		checkDecode(t, body, decodeSweepRequest)
		checkDecode(t, body, decodeAdviseRequest)
	})
}

// batchResultJSON is the reflective form of one batch result:
// appendBatchResult must render exactly what json.Marshal makes of it.
type batchResultJSON struct {
	System  string `json:"system"`
	Program string `json:"program"`
	predictionJSON
}

// FuzzAppendBatchResult holds the batch result renderer to json.Marshal
// for arbitrary finite floats and ints. The seed corpus (the 'f'/'e'
// switch at 1e-6 and 1e21, the e-07 trim, subnormals, -0, extremes) is
// in testdata/fuzz/FuzzAppendBatchResult.
func FuzzAppendBatchResult(f *testing.F) {
	f.Add(4, 8, 1.8, 12.5, 3000.25, 240.02, 0.75, uint8(0))
	f.Fuzz(func(t *testing.T, nodes, cores int, freq, timeS, energyJ, powerW, ucr float64, names uint8) {
		p := predictionJSON{
			Config:  configJSON{Nodes: nodes, Cores: cores, FreqGHz: freq},
			TimeS:   timeS,
			EnergyJ: energyJ,
			PowerW:  powerW,
			UCR:     ucr,
		}
		if !finitePrediction(p) {
			t.Skip("json.Marshal rejects non-finite floats")
		}
		systems, programs := []string{"xeon", "arm"}, []string{"SP", "CP", "LB", "FT"}
		system, program := systems[int(names)%len(systems)], programs[int(names/2)%len(programs)]
		want := mustJSON(batchResultJSON{System: system, Program: program, predictionJSON: p})
		got := appendBatchResult([]byte("prefix"), system, program, p)
		if string(got[len("prefix"):]) != string(want) {
			t.Fatalf("rendered\n%s\njson.Marshal\n%s", got[len("prefix"):], want)
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
	body := mustJSON(want)
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
	checkEveryField(t, decodeBatchRequest)
	checkEveryField(t, decodePredictRequest)
	checkEveryField(t, decodeSweepRequest)
	checkEveryField(t, decodeAdviseRequest)
}

// TestAppendBatchResultCoversPredictionJSON: appendBatchResult writes
// every field of predictionJSON, in json.Marshal's order, so a field
// added there cannot go missing from the batch answer.
func TestAppendBatchResultCoversPredictionJSON(t *testing.T) {
	var p predictionJSON
	next := 0
	fillDistinct(t, reflect.ValueOf(&p).Elem(), &next)
	want := mustJSON(batchResultJSON{System: "xeon", Program: "SP", predictionJSON: p})
	if got := appendBatchResult(nil, "xeon", "SP", p); !bytes.Equal(got, want) {
		t.Errorf("rendered\n%s\njson.Marshal\n%s", got, want)
	}
}

// TestCatalogueNamesNeedNoEscaping pins what makes rendering names raw
// safe: json.Marshal writes every catalogue name (and so every name a
// validated request can carry) as the name itself, quoted.
func TestCatalogueNamesNeedNoEscaping(t *testing.T) {
	for name := range wireNames {
		if got, want := string(mustJSON(name)), `"`+name+`"`; got != want {
			t.Errorf("json.Marshal(%q) = %s, want %s", name, got, want)
		}
	}
}

// TestDuplicateKeyIsRejected: the one deliberate departure from
// encoding/json, on every decoding route.
func TestDuplicateKeyIsRejected(t *testing.T) {
	_, ts := newLifecycleServer(t, Config{})
	for route, body := range map[string]string{
		"/v1/batch":   `{"tuples":[{"system":"xeon","program":"SP","nodes":1,"cores":1}],"Tuples":[]}`,
		"/v1/predict": `{"system":"xeon","program":"SP","nodes":1,"cores":1,"cores":2}`,
		"/v1/sweep":   `{"system":"xeon","system":"arm","program":"SP"}`,
		"/v1/advise":  `{"system":"xeon","program":"SP","policies":["fixed"],"policies":["slack"]}`,
	} {
		resp, raw := postJSON(t, ts.URL+route, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", route, resp.StatusCode, raw)
		}
		if msg, _ := errorEnvelope(t, resp, raw); !strings.Contains(msg, "duplicate field") {
			t.Errorf("%s: error %q does not name the duplicate", route, msg)
		}
	}
}

// TestReadBodyMaxMatchesReadAll: presizing from Content-Length changes
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
			got, ok := readBodyMax(rec, newReq(), limit)
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
	r.ContentLength = maxBatchBodyBytes
	if got, ok := readBodyMax(httptest.NewRecorder(), r, maxBatchBodyBytes); !ok || len(got) != 0 {
		t.Fatalf("ok=%v, %d bytes", ok, len(got))
	}
	if body.offered > maxBodyPresize+1 {
		t.Errorf("declared %d bytes, got a %d-byte buffer before any arrived; bound %d",
			maxBatchBodyBytes, body.offered, maxBodyPresize+1)
	}

	big := bytes.Repeat([]byte("x"), 3*maxBodyPresize+7)
	r = httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(big))
	got, ok := readBodyMax(httptest.NewRecorder(), r, maxBatchBodyBytes)
	if !ok || !bytes.Equal(got, big) {
		t.Errorf("a %d-byte body past the presize: ok=%v, read %d bytes", len(big), ok, len(got))
	}
}

// flushRecorder counts the NDJSON lines written before each flush.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushedAt []int
}

func (f *flushRecorder) Flush() {
	f.flushedAt = append(f.flushedAt, bytes.Count(f.Body.Bytes(), []byte{'\n'}))
}

// TestDerivedNDJSONMatchesDocument: the NDJSON form of a batch, sweep and
// advise answer — derived from the stored document on every write — on
// a cache miss and then on hits. Each item line's payload is the raw
// bytes of the document's array element, the summary line carries
// exactly the document's other fields, there are items+1 lines, and the
// stream flushes every 32 lines and once at the end.
func TestDerivedNDJSONMatchesDocument(t *testing.T) {
	s := NewServer(Config{
		Workers:       2,
		Seed:          42,
		ResponseCache: 16,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	s.SetReady(true)
	h := s.Handler()
	serve := func(route, body string, stream bool) (*flushRecorder, string) {
		req := httptest.NewRequest(http.MethodPost, route, strings.NewReader(body))
		if stream {
			req.Header.Set("Accept", "application/x-ndjson")
		}
		rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", route, rec.Code, rec.Body)
		}
		return rec, rec.Header().Get("X-Response-Cache")
	}
	for _, tc := range []struct {
		route, body, item, list string
	}{
		{"/v1/batch", string(benchTuples(100)), "result", "results"},
		{"/v1/sweep", `{"system":"arm","program":"CP","class":"S","max_nodes":4,"deadline_s":1e9,"budget_j":1e12}`, "point", "frontier"},
		{"/v1/advise", `{"system":"arm","program":"CP","class":"S","nodes":2,"cores":2}`, "policy", "policies"},
	} {
		t.Run(tc.route, func(t *testing.T) {
			first, status := serve(tc.route, tc.body, true)
			if status != string(cacheMiss) {
				t.Fatalf("first streamed request: X-Response-Cache %q, want miss", status)
			}
			doc, status := serve(tc.route, tc.body, false)
			if status != string(cacheHit) {
				t.Fatalf("document request: X-Response-Cache %q, want hit", status)
			}
			again, status := serve(tc.route, tc.body, true)
			if status != string(cacheHit) {
				t.Fatalf("second streamed request: X-Response-Cache %q, want hit", status)
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(doc.Body.Bytes(), &fields); err != nil {
				t.Fatal(err)
			}
			var items []json.RawMessage
			if err := json.Unmarshal(fields[tc.list], &items); err != nil {
				t.Fatal(err)
			}
			delete(fields, tc.list)
			for _, rec := range []*flushRecorder{first, again} {
				checkDerivedStream(t, rec, tc.item, items, fields)
			}
			if first.Body.String() != again.Body.String() {
				t.Error("streamed cache hit differs from the streamed miss")
			}
		})
	}
}

func checkDerivedStream(t *testing.T, rec *flushRecorder, item string, items []json.RawMessage, summary map[string]json.RawMessage) {
	t.Helper()
	lines := strings.SplitAfter(rec.Body.String(), "\n")
	if last := lines[len(lines)-1]; last != "" {
		t.Fatalf("stream ends in an unterminated line %q", last)
	}
	lines = lines[:len(lines)-1]
	if len(lines) != len(items)+1 {
		t.Fatalf("%d lines for %d items, want items+1", len(lines), len(items))
	}
	for i, it := range items {
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[i]), &line); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if len(line) != 2 || string(line["type"]) != `"`+item+`"` {
			t.Fatalf("line %d = %s, want type %q and one payload", i, lines[i], item)
		}
		if !bytes.Equal(line[item], it) {
			t.Errorf("line %d payload\n%s\ndocument element\n%s", i, line[item], it)
		}
	}
	var sum map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(items)]), &sum); err != nil {
		t.Fatal(err)
	}
	if string(sum["type"]) != `"summary"` {
		t.Fatalf("last line %s is not the summary", lines[len(items)])
	}
	delete(sum, "type")
	if !reflect.DeepEqual(rawStrings(sum), rawStrings(summary)) {
		t.Errorf("summary line fields %v, document fields %v", rawStrings(sum), rawStrings(summary))
	}
	var want []int
	for n := streamFlushEvery; n <= len(lines); n += streamFlushEvery {
		want = append(want, n)
	}
	want = append(want, len(lines))
	if !reflect.DeepEqual(rec.flushedAt, want) {
		t.Errorf("flushed after lines %v, want %v", rec.flushedAt, want)
	}
}

func rawStrings(m map[string]json.RawMessage) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = string(v)
	}
	return out
}

// TestBatchAllocBudget gates the allocations of one 192-tuple /v1/batch
// request on the compute path (cache off): decode, validation, evaluation
// and rendering allocate per request, never per tuple. The reflective
// decoder and per-result json.Marshal cost about 1,100.
func TestBatchAllocBudget(t *testing.T) {
	s := NewServer(Config{
		Workers: 2,
		Seed:    42,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err := s.Warm("xeon", "SP"); err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	h := s.Handler()
	body := benchTuples(192)
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve()
	if allocs := testing.AllocsPerRun(20, serve); allocs > 300 {
		t.Errorf("%.0f allocs per 192-tuple batch request, budget 300", allocs)
	}
}
