package telemetry

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
)

// engineAliases are the "engine" values every model-serving route accepts
// as a no-op alias for the one simulation engine.
var engineAliases = []string{"", `,"engine":"sequential"`, `,"engine":"goroutine"`}

// checkEngineAliases posts body (a JSON object without its closing brace)
// once per alias and requires byte-identical 200 answers, then checks
// that an unknown engine is a structured 400 naming the offender.
func checkEngineAliases(t *testing.T, url, body, bad string) {
	t.Helper()
	var first []byte
	for _, alias := range engineAliases {
		resp, raw := postJSON(t, url, body+alias+"}")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("engine alias %q: status %d: %s", alias, resp.StatusCode, raw)
		}
		if first == nil {
			first = raw
		} else if !bytes.Equal(raw, first) {
			t.Errorf("engine alias %q changed the answer:\n got  %s\n want %s", alias, raw, first)
		}
	}
	resp, raw := postJSON(t, url, body+`,"engine":"`+bad+`"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown engine status %d, want 400: %s", resp.StatusCode, raw)
	}
	msg, status := errorEnvelope(t, resp, raw)
	if status != http.StatusBadRequest || !strings.Contains(msg, bad) || !strings.Contains(msg, "sequential") {
		t.Errorf("error envelope (%d, %q) does not name the bad and valid engines", status, msg)
	}
}

// TestPredictEngineField: the engine field of predict and batch bodies is
// a no-op alias — "", "sequential" and "goroutine" give byte-identical
// answers — and an unknown engine is a structured 400 naming the valid
// names. The engine counters are exposed unlabelled.
func TestPredictEngineField(t *testing.T) {
	s, ts := newTestServer(t)
	checkEngineAliases(t, ts.URL+"/v1/predict",
		`{"system":"xeon","program":"SP","class":"S","nodes":2,"cores":2,"freq_ghz":1.8`, "warp-drive")
	checkEngineAliases(t, ts.URL+"/v1/batch",
		`{"class":"S","tuples":[{"system":"xeon","program":"SP","nodes":2,"cores":2}]`, "warp-drive")
	if snap := s.Engine().Snapshot(); snap.Events == 0 {
		t.Error("engine counters untouched after a characterisation")
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	types, samples := parseExposition(t, string(text))
	if got := samples["hybridperf_engine_events_total"]; got == "" || got == "0" {
		t.Errorf("engine events = %q, want non-zero", got)
	}
	for _, gone := range []string{"hybridperf_requests_by_engine_total", "hybridperf_engine_handoffs_total"} {
		if _, ok := types[gone]; ok {
			t.Errorf("/metrics still exposes %s", gone)
		}
	}
}

// TestSweepEngineField mirrors the predict contract on /v1/sweep and
// /v1/advise.
func TestSweepEngineField(t *testing.T) {
	_, ts := newTestServer(t)
	checkEngineAliases(t, ts.URL+"/v1/sweep", `{"system":"arm","program":"CP","class":"S","pow2":true`, "threads")
	checkEngineAliases(t, ts.URL+"/v1/advise", `{"system":"xeon","program":"SP","class":"S","nodes":2,"cores":2`, "threads")
}

// TestConfigDefaultEngine: the default (and only) engine runs engine-less
// requests, and /v1/systems keeps reporting it under the engines and
// default_engine keys clients read.
func TestConfigDefaultEngine(t *testing.T) {
	s, ts := newTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/v1/predict",
		`{"system":"xeon","program":"LU","class":"S","nodes":1,"cores":2,"freq_ghz":1.8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, raw)
	}
	if snap := s.Engine().Snapshot(); snap.Events == 0 {
		t.Errorf("engine counters = %+v, want activity after a characterisation", snap)
	}

	sresp, err := http.Get(ts.URL + "/v1/systems")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	body, err := io.ReadAll(sresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"default_engine":"sequential"`, `"engines":["sequential"]`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/v1/systems response missing %s: %s", want, body)
		}
	}
}
