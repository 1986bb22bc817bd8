package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"hybridperf/internal/api"
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
		return errors.New("trailing data after the first value")
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

// FuzzBatchDecode holds the shard's /v1/batch decoder, api.DecodeBatch,
// to encoding/json. The seed corpus is in testdata/fuzz/FuzzBatchDecode.
func FuzzBatchDecode(f *testing.F) {
	f.Add([]byte(`{"class":"A","tuples":[{"system":"xeon","program":"SP","nodes":4,"cores":8,"freq_ghz":1.8}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, api.DecodeBatch)
	})
}

// FuzzRequestDecode holds the shard's /v1/predict, /v1/sweep and
// /v1/advise decoders (api.DecodePredict, DecodeSweep, DecodeAdvise) to
// encoding/json. The seed corpus is in testdata/fuzz/FuzzRequestDecode.
func FuzzRequestDecode(f *testing.F) {
	f.Add([]byte(`{"system":"xeon","program":"SP","class":"S","nodes":4,"cores":8,"freq_ghz":1.8}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, api.DecodePredict)
		checkDecode(t, body, api.DecodeSweep)
		checkDecode(t, body, api.DecodeAdvise)
	})
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
	for n := api.StreamFlushEvery; n <= len(lines); n += api.StreamFlushEvery {
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
