package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"hybridperf/internal/gateway"
)

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 50},  // overlaps the first: 10-50 covered once
		{Parent: 1, Start: 90, End: 120}, // clipped to the parent: 90-100
		{Parent: 1, Start: 60, End: 60},  // empty
	}
	if got := selfTime(parent, kids); got != 50 {
		t.Errorf("self time = %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("leaf self time = %d, want 100", got)
	}
}

func TestLinkByTraceID(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: "a", Name: layerClient, Start: 0, End: 100},
		{ID: 2, Trace: "a", Name: layerGateway, Start: 5, End: 95},
		{ID: 3, Trace: "a", Name: layerShard, Start: 10, End: 40},
		{ID: 4, Trace: "a", Name: layerShard, Start: 20, End: 60},
		{ID: 5, Trace: "b", Name: layerClient, Start: 0, End: 50},
		{ID: 6, Trace: "b", Name: layerShard, Start: 5, End: 45},
	}
	link(spans)
	want := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 0, 6: 5}
	for _, s := range spans {
		if s.Parent != want[s.ID] {
			t.Errorf("span %d (%s %s): parent %d, want %d", s.ID, s.Trace, s.Name, s.Parent, want[s.ID])
		}
	}
}

// TestGatewayForwardsTraceID sends a traced request through a real
// gateway to a stub shard and checks that the shard's handler span links
// under the gateway's, which links under the client's.
func TestGatewayForwardsTraceID(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]float64{"time_s": 1, "energy_j": 2})
	})
	shardSrv := httptest.NewServer(tr.wrap(layerShard, stub))
	defer shardSrv.Close()
	gw, err := gateway.New([]string{shardSrv.URL}, discardLogger)
	if err != nil {
		t.Fatal(err)
	}
	gwSrv := httptest.NewServer(tr.wrap(layerGateway, gw.Handler()))
	defer gwSrv.Close()

	list := []request{{Route: routePredict, Body: []byte(`{"system":"xeon","program":"SP"}`)}}
	d := newLoader(gwSrv.URL, list)
	defer d.close()
	d.tr = tr
	s, _, err := d.send(0, list[0])
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.snapshot()
	link(spans)
	kids := children(spans)
	var gwSpan *span
	for _, k := range kids[s.SpanID] {
		if k.Name == layerGateway {
			k := k
			gwSpan = &k
		}
	}
	if gwSpan == nil {
		t.Fatalf("no gateway span under the client span; spans %+v", spans)
	}
	shardKids := kids[gwSpan.ID]
	if len(shardKids) != 1 || shardKids[0].Name != layerShard {
		t.Fatalf("gateway span children %+v, want one shard span", shardKids)
	}
	if shardKids[0].Trace != gwSpan.Trace {
		t.Errorf("shard trace %q, gateway trace %q", shardKids[0].Trace, gwSpan.Trace)
	}
	if selfTime(*gwSpan, shardKids) <= 0 || selfTime(*gwSpan, shardKids) >= gwSpan.dur() {
		t.Errorf("gateway self time %d of %d ns", selfTime(*gwSpan, shardKids), gwSpan.dur())
	}
}
