package gateway

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"hybridperf/internal/api"
	"hybridperf/internal/telemetry"
)

const adviseBody = `{"system":"xeon","program":"SP","class":"S","nodes":2,"cores":2}`

// TestAdviseThroughGatewayMatchesSingle: an advisory answer relayed by
// the gateway must be byte-identical to the owning shard's — document and
// NDJSON shapes both — with the shard's cost attribution re-stamped.
func TestAdviseThroughGatewayMatchesSingle(t *testing.T) {
	_, gts, _ := newCluster(t, 2)
	_, single := newShard(t)

	resp, viaGateway := post(t, gts.URL+"/v1/advise", adviseBody, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway advise: status %d: %s", resp.StatusCode, viaGateway)
	}
	if resp.Header.Get(telemetry.PredictionsHeader) == "" {
		t.Error("gateway advise dropped the attribution headers")
	}
	respD, direct := post(t, single.URL+"/v1/advise", adviseBody, nil)
	if respD.StatusCode != http.StatusOK {
		t.Fatalf("direct advise: status %d: %s", respD.StatusCode, direct)
	}
	if string(viaGateway) != string(direct) {
		t.Errorf("gateway advise differs from single-daemon advise:\ngateway: %s\ndirect:  %s", viaGateway, direct)
	}
	if got, want := resp.Header.Get(telemetry.PredictionsHeader), respD.Header.Get(telemetry.PredictionsHeader); got != want {
		t.Errorf("relayed attribution %q, shard said %q", got, want)
	}

	hdr := map[string]string{"Accept": "application/x-ndjson"}
	respS, streamed := post(t, gts.URL+"/v1/advise", adviseBody, hdr)
	if respS.StatusCode != http.StatusOK {
		t.Fatalf("gateway advise stream: status %d: %s", respS.StatusCode, streamed)
	}
	if ct := respS.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("streamed Content-Type = %q", ct)
	}
	_, directS := post(t, single.URL+"/v1/advise", adviseBody, hdr)
	if string(streamed) != string(directS) {
		t.Errorf("gateway advise NDJSON differs from single-daemon NDJSON:\ngateway: %s\ndirect:  %s", streamed, directS)
	}
}

// TestAdviseRelaysShardErrors: a shard-detected 4xx (unknown policy —
// the gateway does not pre-validate advise bodies) relays verbatim.
func TestAdviseRelaysShardErrors(t *testing.T) {
	_, gts, _ := newCluster(t, 2)
	resp, raw := post(t, gts.URL+"/v1/advise",
		`{"system":"xeon","program":"SP","policies":["turbo"]}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
	}
}

// stubCluster fronts the gateway with a single fake shard whose handler
// the test controls — for pinning how shard error answers relay.
func stubCluster(t *testing.T, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	shard := httptest.NewServer(h)
	t.Cleanup(shard.Close)
	g, err := New([]string{shard.URL}, quiet())
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(g.Handler())
	t.Cleanup(gts.Close)
	return gts
}

// TestRetryAfterPropagatedFromShard pins the backoff-relay fix: when a
// shard sheds with its own Retry-After, the gateway must relay that
// value — on the point-relay path (predict, advise), the merged-answer
// path (batch), and the all-shards-failed 503 — falling back to "1" only
// when the shard sent none.
func TestRetryAfterPropagatedFromShard(t *testing.T) {
	shed := func(retryAfter string, status int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			api.Error(w, status, "saturated: shed by the stub shard")
		}
	}
	batchBody := `{"tuples":[{"system":"xeon","program":"SP","nodes":1,"cores":1}]}`
	cases := []struct {
		name, route, body string
		shardRetry        string
		shardStatus       int
		wantStatus        int
		wantRetry         string
	}{
		{"predict 429", "/v1/predict", `{"system":"xeon","program":"SP"}`, "7", 429, 429, "7"},
		{"advise 429", "/v1/advise", adviseBody, "11", 429, 429, "11"},
		{"advise 503", "/v1/advise", adviseBody, "13", 503, 503, "13"},
		{"batch 429", "/v1/batch", batchBody, "7", 429, 429, "7"},
		{"batch 429 fallback", "/v1/batch", batchBody, "", 429, 429, "1"},
		{"batch all failed 503", "/v1/batch", batchBody, "9", 503, 503, "9"},
		{"sweep all failed 503", "/v1/sweep", `{"system":"xeon","program":"SP"}`, "9", 503, 503, "9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gts := stubCluster(t, shed(tc.shardRetry, tc.shardStatus))
			resp, raw := post(t, gts.URL+tc.route, tc.body, nil)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, raw)
			}
			if got := resp.Header.Get("Retry-After"); got != tc.wantRetry {
				t.Errorf("Retry-After = %q, want %q", got, tc.wantRetry)
			}
		})
	}
}
