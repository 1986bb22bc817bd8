package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"hybridperf/internal/api"
)

type batchResponse struct {
	Class   string `json:"class"`
	Count   int    `json:"count"`
	Groups  int    `json:"groups"`
	Results []struct {
		System  string `json:"system"`
		Program string `json:"program"`
		Config  struct {
			Nodes   int     `json:"nodes"`
			Cores   int     `json:"cores"`
			FreqGHz float64 `json:"freq_ghz"`
		} `json:"config"`
		TimeS   float64 `json:"time_s"`
		EnergyJ float64 `json:"energy_j"`
		PowerW  float64 `json:"power_w"`
		UCR     float64 `json:"ucr"`
	} `json:"results"`
}

// TestBatchMatchesPredict: every prediction served through /v1/batch —
// vectorised, grouped, pooled buffers — is bit-identical to the same tuple
// served alone through /v1/predict; duplicates collapse and results come
// back in canonical order with a defaulted frequency resolved to f_max.
func TestBatchMatchesPredict(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"class":"A","tuples":[
		{"system":"xeon","program":"SP","nodes":4,"cores":8,"freq_ghz":1.8},
		{"system":"arm","program":"CP","nodes":2,"cores":4,"freq_ghz":1.4},
		{"system":"xeon","program":"SP","nodes":1,"cores":2},
		{"system":"xeon","program":"SP","nodes":4,"cores":8,"freq_ghz":1.8}
	]}`
	resp, raw := postJSON(t, ts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var got batchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	// 4 tuples, one duplicate -> 3 unique across 2 (system, program) groups,
	// sorted arm/CP before xeon/SP, then by (nodes, cores, freq).
	if got.Count != 3 || got.Groups != 2 || len(got.Results) != 3 {
		t.Fatalf("count=%d groups=%d results=%d, want 3/2/3", got.Count, got.Groups, len(got.Results))
	}
	order := []string{"arm/CP/2/4", "xeon/SP/1/2", "xeon/SP/4/8"}
	for i, r := range got.Results {
		key := fmt.Sprintf("%s/%s/%d/%d", r.System, r.Program, r.Config.Nodes, r.Config.Cores)
		if key != order[i] {
			t.Errorf("result %d = %s, want canonical order %s", i, key, order[i])
		}
	}
	for _, r := range got.Results {
		pb := fmt.Sprintf(`{"system":%q,"program":%q,"class":"A","nodes":%d,"cores":%d,"freq_ghz":%v}`,
			r.System, r.Program, r.Config.Nodes, r.Config.Cores, r.Config.FreqGHz)
		presp, praw := postJSON(t, ts.URL+"/v1/predict", pb)
		if presp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %d: %s", presp.StatusCode, praw)
		}
		var want predictResponse
		if err := json.Unmarshal(praw, &want); err != nil {
			t.Fatal(err)
		}
		if r.TimeS != want.TimeS || r.EnergyJ != want.EnergyJ || r.PowerW != want.PowerW || r.UCR != want.UCR {
			t.Errorf("batch result %s/%s %+v diverges from /v1/predict %+v",
				r.System, r.Program, r, want)
		}
	}
	// The defaulted-frequency tuple resolved to xeon's f_max.
	if f := got.Results[1].Config.FreqGHz; f <= 0 {
		t.Errorf("defaulted freq_ghz rendered as %v, want f_max", f)
	}
}

func TestBatchErrorPaths(t *testing.T) {
	_, ts := newTestServer(t)
	many := `{"system":"xeon","program":"SP","nodes":1,"cores":1,"freq_ghz":1.8},`
	cases := []struct {
		name, body string
		wantStatus int
		wantSubstr string
	}{
		{"no tuples", `{"class":"A","tuples":[]}`, 400, "no tuples"},
		{"missing tuples", `{"class":"A"}`, 400, "no tuples"},
		{"unknown system", `{"tuples":[{"system":"xeon","program":"SP","nodes":1,"cores":1},{"system":"cray","program":"SP","nodes":1,"cores":1}]}`, 400, "tuple 1: unknown system"},
		{"unknown program", `{"tuples":[{"system":"xeon","program":"NOPE","nodes":1,"cores":1}]}`, 400, "tuple 0: unknown program"},
		{"bad class", `{"class":"Z","tuples":[{"system":"xeon","program":"SP","nodes":1,"cores":1}]}`, 400, "class"},
		{"invalid config", `{"tuples":[{"system":"xeon","program":"SP","nodes":1,"cores":1},{"system":"xeon","program":"SP","nodes":0,"cores":1}]}`, 400, "tuple 1: invalid configuration"},
		{"unknown field", `{"tuplez":[]}`, 400, "tuplez"},
		{"over the tuple cap", `{"tuples":[` + strings.Repeat(many, api.MaxBatchTuples) + many[:len(many)-1] + `]}`, 400, "limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postJSON(t, ts.URL+"/v1/batch", tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %.300s", resp.StatusCode, tc.wantStatus, raw)
			}
			msg, _ := errorEnvelope(t, resp, raw)
			if !strings.Contains(msg, tc.wantSubstr) {
				t.Errorf("error %q does not mention %q", msg, tc.wantSubstr)
			}
		})
	}
}

// readStream POSTs body with streaming requested (via the Accept header)
// and returns the NDJSON lines plus the X-Response-Cache header.
//
// Headers are asserted from resp.Header the moment Do returns — before a
// single body byte is read. net/http silently drops any header the
// handler sets after the first flush, so a header visible here was
// provably written before the stream began; one set too late would be
// absent (or demoted to a trailer, pinned empty below).
func readStream(t *testing.T, url, body string) ([]string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q, want application/x-ndjson", ct)
	}
	cacheHdr := resp.Header.Get("X-Response-Cache")
	if cacheHdr == "" {
		t.Error("X-Response-Cache missing from the pre-flush headers of a streamed response")
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("X-Request-Id missing from the pre-flush headers of a streamed response")
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 8<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// The body has been fully drained: any header the handler wrote after
	// the first flush would surface here as a trailer instead of being
	// delivered. An empty trailer set proves nothing arrived late.
	if len(resp.Trailer) != 0 {
		t.Errorf("streamed response carried %d trailer(s) %v — headers were written after the first flush",
			len(resp.Trailer), resp.Trailer)
	}
	return lines, cacheHdr
}

// TestStreamedMatchesDocument is the streamed/non-streamed identity
// contract for both cacheable endpoints: the NDJSON lines carry exactly
// the document's results (same JSON fragments, same order) plus one
// trailing summary whose fields match the document header.
func TestStreamedMatchesDocument(t *testing.T) {
	for _, tc := range []struct {
		route, body, lineKey, docList string
	}{
		{"/v1/batch", `{"class":"A","tuples":[
			{"system":"arm","program":"CP","nodes":2,"cores":4,"freq_ghz":1.4},
			{"system":"arm","program":"CP","nodes":1,"cores":2,"freq_ghz":1.4}
		]}`, "result", "results"},
		{"/v1/sweep", `{"system":"arm","program":"CP","class":"S","pow2":true}`, "point", "frontier"},
	} {
		t.Run(tc.route, func(t *testing.T) {
			// Cache-less server: identity must hold by construction, not via
			// the cache serving both shapes from one entry.
			_, ts := newLifecycleServer(t, Config{})
			resp, raw := postJSON(t, ts.URL+tc.route, tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("document status %d: %s", resp.StatusCode, raw)
			}
			var doc map[string]json.RawMessage
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			var docItems []json.RawMessage
			if err := json.Unmarshal(doc[tc.docList], &docItems); err != nil {
				t.Fatal(err)
			}

			lines, cacheHdr := readStream(t, ts.URL+tc.route, tc.body)
			if cacheHdr != string(cacheBypass) {
				t.Errorf("X-Response-Cache = %q on a cache-less server, want bypass", cacheHdr)
			}
			if len(lines) != len(docItems)+1 {
				t.Fatalf("%d NDJSON lines for %d document items (+1 summary)", len(lines), len(docItems))
			}
			for i, item := range docItems {
				var line struct {
					Type string          `json:"type"`
					Data json.RawMessage `json:"-"`
				}
				var full map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[i]), &full); err != nil {
					t.Fatalf("line %d: %v", i, err)
				}
				json.Unmarshal(full["type"], &line.Type)
				if line.Type != tc.lineKey {
					t.Fatalf("line %d type %q, want %q", i, line.Type, tc.lineKey)
				}
				if string(full[tc.lineKey]) != string(item) {
					t.Errorf("line %d payload differs from document item:\n%s\n%s",
						i, full[tc.lineKey], item)
				}
			}
			// Trailing summary: type tag plus every non-list document field.
			var sum map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
				t.Fatal(err)
			}
			var sumType string
			json.Unmarshal(sum["type"], &sumType)
			if sumType != "summary" {
				t.Fatalf("last line type %q, want summary", sumType)
			}
			for k, v := range doc {
				if k == tc.docList {
					continue
				}
				if string(sum[k]) != string(v) {
					t.Errorf("summary field %s = %s, document says %s", k, sum[k], v)
				}
			}
		})
	}
}

// TestResponseCacheByteIdentity: a cache hit serves the exact bytes the
// miss computed, for both wire shapes, with X-Response-Cache flipping
// miss -> hit — and the streamed form of a cached answer equals the
// streamed form of the fresh one.
func TestResponseCacheByteIdentity(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"class":"A","tuples":[
		{"system":"xeon","program":"SP","nodes":2,"cores":4,"freq_ghz":1.8},
		{"system":"xeon","program":"SP","nodes":1,"cores":1,"freq_ghz":1.8}
	]}`
	resp1, raw1 := postJSON(t, ts.URL+"/v1/batch", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("fresh batch status %d: %s", resp1.StatusCode, raw1)
	}
	if h := resp1.Header.Get("X-Response-Cache"); h != string(cacheMiss) {
		t.Errorf("fresh X-Response-Cache = %q, want miss", h)
	}
	// Same work spelled differently: tuples reordered, one duplicated,
	// class defaulted instead of explicit.
	variant := `{"tuples":[
		{"system":"xeon","program":"SP","nodes":1,"cores":1,"freq_ghz":1.8},
		{"system":"xeon","program":"SP","nodes":2,"cores":4,"freq_ghz":1.8},
		{"system":"xeon","program":"SP","nodes":1,"cores":1,"freq_ghz":1.8}
	]}`
	resp2, raw2 := postJSON(t, ts.URL+"/v1/batch", variant)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("variant batch status %d: %s", resp2.StatusCode, raw2)
	}
	if h := resp2.Header.Get("X-Response-Cache"); h != string(cacheHit) {
		t.Errorf("variant X-Response-Cache = %q, want hit (canonicalisation failed)", h)
	}
	if string(raw1) != string(raw2) {
		t.Errorf("cached response differs from fresh:\n%s\n%s", raw1, raw2)
	}
	streamed, cacheHdr := readStream(t, ts.URL+"/v1/batch", variant)
	if cacheHdr != string(cacheHit) {
		t.Errorf("streamed variant X-Response-Cache = %q, want hit", cacheHdr)
	}
	if got := strings.Join(streamed, "\n") + "\n"; len(got) == 0 {
		t.Fatal("empty cached stream")
	}

	// Sweep: explicit defaults hit the entry the bare request filled.
	sw1 := `{"system":"arm","program":"CP","class":"S","pow2":true}`
	sw2 := `{"system":"arm","program":"CP","class":"S","pow2":true,"max_nodes":8,"workers":1}`
	r1, braw1 := postJSON(t, ts.URL+"/v1/sweep", sw1)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", r1.StatusCode, braw1)
	}
	r2, braw2 := postJSON(t, ts.URL+"/v1/sweep", sw2)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("sweep variant status %d: %s", r2.StatusCode, braw2)
	}
	if h := r2.Header.Get("X-Response-Cache"); h != string(cacheHit) {
		t.Errorf("sweep with spelled-out defaults X-Response-Cache = %q, want hit "+
			"(max_nodes=testbed size and workers must canonicalise away)", h)
	}
	if string(braw1) != string(braw2) {
		t.Error("cached sweep differs from fresh")
	}
}

// TestBatchSingleflightEndToEnd fires N identical cold batch requests at
// once: the model characterises exactly once, the cache records one miss,
// and hits + collapsed account for the other N-1 — nobody computes twice.
func TestBatchSingleflightEndToEnd(t *testing.T) {
	const n = 6
	s, ts := newTestServer(t)
	body := `{"class":"S","tuples":[{"system":"arm","program":"LB","nodes":2,"cores":4,"freq_ghz":1.4}]}`
	var wg sync.WaitGroup
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := postJSON(t, ts.URL+"/v1/batch", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d status %d: %s", i, resp.StatusCode, raw)
				return
			}
			bodies[i] = string(raw)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Errorf("request %d body differs", i)
		}
	}
	if chars := s.mChar.With("arm", "LB").Value(); chars != 1 {
		t.Errorf("characterisations = %d, want 1", chars)
	}
	c := s.respCache.ctr
	if m := c.misses.Value(); m != 1 {
		t.Errorf("cache misses = %d, want 1", m)
	}
	if h, col := c.hits.Value(), c.collapsed.Value(); h+col != n-1 {
		t.Errorf("hits (%d) + collapsed (%d) = %d, want %d", h, col, h+col, n-1)
	}
}

// TestBatchBodyMemoFastPath: an exact-byte repeat of a batch body is
// served through the body memo — counted as a cache hit and
// byte-identical to the original answer — and a memoised body whose
// cached answer has since been evicted falls back to the full
// decode-and-compute path instead of failing or serving stale bytes.
func TestBatchBodyMemoFastPath(t *testing.T) {
	s, ts := newTestServer(t)
	body := `{"class":"A","tuples":[{"system":"xeon","program":"SP","nodes":3,"cores":2,"freq_ghz":1.5}]}`
	resp1, raw1 := postJSON(t, ts.URL+"/v1/batch", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first batch status %d: %s", resp1.StatusCode, raw1)
	}
	if _, ok := s.batchMemo.get([]byte(body)); !ok {
		t.Fatal("validated body was not memoised")
	}
	hits0 := s.respCache.ctr.hits.Value()
	resp2, raw2 := postJSON(t, ts.URL+"/v1/batch", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat batch status %d: %s", resp2.StatusCode, raw2)
	}
	if h := resp2.Header.Get("X-Response-Cache"); h != string(cacheHit) {
		t.Errorf("repeat X-Response-Cache = %q, want hit", h)
	}
	if string(raw2) != string(raw1) {
		t.Errorf("memo-served response differs from fresh:\n%s\n%s", raw1, raw2)
	}
	if got := s.respCache.ctr.hits.Value(); got != hits0+1 {
		t.Errorf("cache hits = %d, want %d (memo path must count as a hit)", got, hits0+1)
	}

	// Drop the cached answer out from under the memo: the next repeat
	// must fall through to the full path and recompute.
	s.respCache.mu.Lock()
	for s.respCache.lru.Len() > 0 {
		s.respCache.removeLocked(s.respCache.lru.Back())
	}
	s.respCache.mu.Unlock()
	resp3, raw3 := postJSON(t, ts.URL+"/v1/batch", body)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-eviction batch status %d: %s", resp3.StatusCode, raw3)
	}
	if h := resp3.Header.Get("X-Response-Cache"); h != string(cacheMiss) {
		t.Errorf("post-eviction X-Response-Cache = %q, want miss (memo must not serve an evicted entry)", h)
	}
	if string(raw3) != string(raw1) {
		t.Error("recomputed response differs from the original")
	}
}
