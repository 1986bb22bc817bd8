package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridperf/internal/characterize"
	"hybridperf/internal/core"
	"hybridperf/internal/machine"
	"hybridperf/internal/workload"
)

// newTestServer builds a ready server with a quiet logger on a fixed seed,
// mounted on an httptest listener. The response cache is on (as in the
// shipped daemon defaults) so the cacheable handlers run their production
// path; tests needing a cache-less server use newLifecycleServer with a
// zero Config.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{
		Workers:       2,
		Seed:          42,
		ResponseCache: 128,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// errorEnvelope decodes the structured JSON error body every 4xx/5xx
// response must carry.
func errorEnvelope(t *testing.T, resp *http.Response, raw []byte) (string, int) {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("error response Content-Type = %q, want application/json", ct)
	}
	var env struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v\n%s", err, raw)
	}
	if env.Error == "" {
		t.Errorf("error envelope has empty message: %s", raw)
	}
	return env.Error, env.Status
}

type predictResponse struct {
	System  string `json:"system"`
	Program string `json:"program"`
	Class   string `json:"class"`
	Config  struct {
		Nodes   int     `json:"nodes"`
		Cores   int     `json:"cores"`
		FreqGHz float64 `json:"freq_ghz"`
	} `json:"config"`
	TimeS   float64 `json:"time_s"`
	EnergyJ float64 `json:"energy_j"`
	PowerW  float64 `json:"power_w"`
	UCR     float64 `json:"ucr"`
}

// TestPredictMatchesDirectModel is the serving-layer determinism contract:
// a prediction served through the daemon — with every collector attached —
// is bit-identical to one computed directly from a characterisation with
// the same seed. encoding/json renders float64 with the shortest
// round-trippable form, so exact equality after the HTTP round trip means
// exact equality of the underlying bits.
func TestPredictMatchesDirectModel(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"system":"xeon","program":"SP","class":"A","nodes":4,"cores":8,"freq_ghz":1.8}`
	resp, raw := postJSON(t, ts.URL+"/v1/predict", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, raw)
	}
	if id := resp.Header.Get("X-Request-Id"); id == "" {
		t.Error("response missing X-Request-Id")
	}
	var got predictResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}

	prof, err := machine.ByName("xeon")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.ByName("SP")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := characterize.Run(prof, spec, characterize.Options{Seed: 42, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(sum.Inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	S, err := spec.Iterations(workload.ClassA)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Predict(machine.Config{Nodes: 4, Cores: 8, Freq: 1.8e9}, S)
	if err != nil {
		t.Fatal(err)
	}
	if got.TimeS != want.T {
		t.Errorf("served time_s = %v, direct model = %v", got.TimeS, want.T)
	}
	if got.EnergyJ != want.E {
		t.Errorf("served energy_j = %v, direct model = %v", got.EnergyJ, want.E)
	}
	if got.UCR != want.UCR {
		t.Errorf("served ucr = %v, direct model = %v", got.UCR, want.UCR)
	}
	if want.T > 0 && got.PowerW != want.E/want.T {
		t.Errorf("served power_w = %v, want E/T = %v", got.PowerW, want.E/want.T)
	}
}

func TestPredictErrorPaths(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body string
		wantStatus int
		wantSubstr string
	}{
		{"unknown system", `{"system":"cray","program":"SP"}`, 400, "unknown system"},
		{"unknown program", `{"system":"xeon","program":"NOPE"}`, 400, "unknown program"},
		{"bad class", `{"system":"xeon","program":"SP","class":"Z","nodes":1,"cores":1,"freq_ghz":1.8}`, 400, "class"},
		{"zero nodes", `{"system":"xeon","program":"SP","class":"A","nodes":0,"cores":8,"freq_ghz":1.8}`, 400, "invalid configuration"},
		{"cores beyond node", `{"system":"xeon","program":"SP","class":"A","nodes":1,"cores":99,"freq_ghz":1.8}`, 400, "invalid configuration"},
		{"unsupported frequency", `{"system":"xeon","program":"SP","class":"A","nodes":1,"cores":8,"freq_ghz":9.9}`, 400, "invalid configuration"},
		{"bad JSON", `{"system": `, 400, "invalid JSON"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postJSON(t, ts.URL+"/v1/predict", tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, raw)
			}
			msg, status := errorEnvelope(t, resp, raw)
			if status != tc.wantStatus {
				t.Errorf("envelope status %d, want %d", status, tc.wantStatus)
			}
			if !strings.Contains(msg, tc.wantSubstr) {
				t.Errorf("error %q does not mention %q", msg, tc.wantSubstr)
			}
		})
	}
}

func TestSweepBadMaxNodes(t *testing.T) {
	_, ts := newTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/v1/sweep",
		`{"system":"xeon","program":"SP","class":"S","max_nodes":100000}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
	}
	msg, _ := errorEnvelope(t, resp, raw)
	if !strings.Contains(msg, "max_nodes") {
		t.Errorf("error %q does not mention max_nodes", msg)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s := NewServer(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz before SetReady = %d, want 503", resp.StatusCode)
	}
	s.SetReady(true)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after SetReady = %d, want 200", resp.StatusCode)
	}
}

func TestSystemsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/systems")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Systems []struct {
			Name     string `json:"name"`
			MaxNodes int    `json:"max_nodes"`
			Topology string `json:"topology"`
		} `json:"systems"`
		Programs []string `json:"programs"`
		Classes  []string `json:"classes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	byName := map[string]string{}
	for _, sys := range doc.Systems {
		byName[sys.Name] = sys.Topology
	}
	if topo, ok := byName["xeon"]; !ok {
		t.Error("xeon profile missing from /v1/systems")
	} else if topo == "" {
		t.Error("xeon topology rendered empty; want the effective default")
	}
	if len(doc.Programs) == 0 || len(doc.Classes) == 0 {
		t.Errorf("programs/classes empty: %+v", doc)
	}
}

// TestMetricsExposition is the exposition-format golden test: after real
// traffic, /metrics must parse and carry the full documented series set
// with the right types.
func TestMetricsExposition(t *testing.T) {
	s, ts := newTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/v1/predict",
		`{"system":"xeon","program":"SP","class":"A","nodes":4,"cores":8,"freq_ghz":1.8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, raw)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	types, samples := parseExposition(t, string(text))

	wantTypes := map[string]string{
		"hybridperf_http_requests_total":                    "counter",
		"hybridperf_http_request_duration_seconds":          "histogram",
		"hybridperf_http_requests_in_flight":                "gauge",
		"hybridperf_models_cached":                          "gauge",
		"hybridperf_model_characterizations_total":          "counter",
		"hybridperf_http_request_duration_quantile_seconds": "gauge",
		"hybridperf_uptime_seconds":                         "gauge",
		"hybridperf_engine_events_total":                    "counter",
		"hybridperf_engine_mpi_messages_total":              "counter",
		"hybridperf_engine_heap_high_water":                 "gauge",
		"hybridperf_engine_mpi_msg_bytes":                   "histogram",
		"hybridperf_response_cache_hits_total":              "counter",
		"hybridperf_response_cache_misses_total":            "counter",
		"hybridperf_response_cache_evictions_total":         "counter",
		"hybridperf_response_cache_collapsed_total":         "counter",
		"hybridperf_response_cache_entries":                 "gauge",
	}
	for name, kind := range wantTypes {
		if types[name] != kind {
			t.Errorf("TYPE %s = %q, want %q", name, types[name], kind)
		}
	}
	if got := samples[`hybridperf_http_requests_total{route="/v1/predict",method="POST",code="200"}`]; got != "1" {
		t.Errorf("predict request counter = %q, want 1", got)
	}
	if got := samples[`hybridperf_model_characterizations_total{system="xeon",program="SP"}`]; got != "1" {
		t.Errorf("characterizations counter = %q, want 1", got)
	}
	if got := samples["hybridperf_models_cached"]; got != "1" {
		t.Errorf("models cached = %q, want 1", got)
	}
	// The characterisation ran through the server's shared engine
	// counters, so they must be live on the very first scrape.
	if got := samples["hybridperf_engine_events_total"]; got == "" || got == "0" {
		t.Errorf("engine events = %q, want non-zero after characterisation", got)
	}
	if got := s.Engine().Snapshot().Events; fmt.Sprint(got) != samples["hybridperf_engine_events_total"] {
		t.Errorf("scraped engine events %q, server engine %d", samples["hybridperf_engine_events_total"], got)
	}
	for key := range samples {
		if _, ok := types[familyOf(key)]; !ok {
			t.Errorf("sample %s has no TYPE declaration", key)
		}
	}
}

// TestConcurrentScrapeDuringSweep hammers /metrics while a cold sweep
// characterises and evaluates — the race detector turns any unsynchronised
// counter access into a failure.
func TestConcurrentScrapeDuringSweep(t *testing.T) {
	_, ts := newTestServer(t)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	resp, raw := postJSON(t, ts.URL+"/v1/sweep",
		`{"system":"arm","program":"CP","class":"S","pow2":true}`)
	close(done)
	wg.Wait()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, raw)
	}
	var doc struct {
		Configs  int               `json:"configs"`
		Frontier []json.RawMessage `json:"frontier"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Configs == 0 || len(doc.Frontier) == 0 {
		t.Errorf("sweep returned %d configs, %d frontier points", doc.Configs, len(doc.Frontier))
	}
}

func TestDebugTrace(t *testing.T) {
	_, ts := newTestServer(t)
	// Fire a request mid-window so at least one span ends inside it.
	go func() {
		time.Sleep(30 * time.Millisecond)
		resp, err := http.Get(ts.URL + "/v1/systems")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	resp, err := http.Get(ts.URL + "/debug/trace?duration=200ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
		if strings.Contains(ev.Name, "/v1/systems") {
			found = true
		}
	}
	if !found {
		t.Errorf("trace window missed the concurrent request; events: %+v", doc.TraceEvents)
	}

	badResp, err := http.Get(ts.URL + "/debug/trace?duration=bogus")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(badResp.Body)
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad duration status %d, want 400: %s", badResp.StatusCode, raw)
	}
}

// TestModelCharacterizedOnce issues concurrent cold predicts for one
// (system, program) pair and expects exactly one characterisation.
func TestModelCharacterizedOnce(t *testing.T) {
	s, ts := newTestServer(t)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
				strings.NewReader(`{"system":"arm","program":"LB","class":"S","nodes":2,"cores":4,"freq_ghz":1.4}`))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := s.mChar.With("arm", "LB").Value(); n != 1 {
		t.Errorf("characterisations = %d, want exactly 1", n)
	}
}

// TestSystemsETag: /v1/systems carries a strong ETag and honours
// If-None-Match with a body-less 304, including weak-prefixed and
// comma-separated candidate lists and the "*" wildcard.
func TestSystemsETag(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/systems")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("ETag = %q, want a quoted strong validator", etag)
	}
	if len(body) == 0 {
		t.Fatal("systems body empty")
	}
	for _, inm := range []string{etag, `"stale", ` + etag, "W/" + etag, "*"} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/systems", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", inm)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", inm, resp.StatusCode)
		}
		if len(raw) != 0 {
			t.Errorf("If-None-Match %q: 304 carried %d body bytes", inm, len(raw))
		}
		if got := resp.Header.Get("ETag"); got != etag {
			t.Errorf("304 ETag = %q, want %q", got, etag)
		}
	}
	// A stale validator revalidates to the full body.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/systems", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", `"0000000000000000"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stale If-None-Match: status %d, want 200", resp.StatusCode)
	}
	if string(raw) != string(body) {
		t.Error("revalidated body differs from the original")
	}
}

// TestWarmRunsUnderDefaultEngineAndAdmission audits the -preload path: a
// warm-up campaign must hold an admission slot for its duration and feed
// the server's engine counters, exactly like a served cold request would.
func TestWarmRunsUnderDefaultEngineAndAdmission(t *testing.T) {
	s := NewServer(Config{
		Workers:      2,
		Seed:         42,
		MaxCampaigns: 1,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	var sawSlots int
	var sawEngine uint64
	s.charTestHook = func(ctx context.Context, key modelKey) error {
		sawSlots = len(s.sem)
		sawEngine = s.Engine().Snapshot().Events
		return nil
	}
	if err := s.Warm("arm", "LB"); err != nil {
		t.Fatal(err)
	}
	if sawSlots != 1 {
		t.Errorf("admission slots held during warm-up = %d, want 1", sawSlots)
	}
	if sawEngine != 0 {
		t.Errorf("engine events before the warm campaign = %d, want 0", sawEngine)
	}
	if got := s.Engine().Snapshot().Events; got == 0 {
		t.Error("warm-up fed no events to the engine counters")
	}
	if n := s.mChar.With("arm", "LB").Value(); n != 1 {
		t.Errorf("characterisations after warm-up = %d, want 1", n)
	}
	// The slot is returned: Warm again (cached, still takes and releases a
	// slot) and then saturate manually to prove capacity is back to 1.
	if err := s.Warm("arm", "LB"); err != nil {
		t.Fatal(err)
	}
	if len(s.sem) != 0 {
		t.Errorf("admission slots still held after warm-up: %d", len(s.sem))
	}
}
