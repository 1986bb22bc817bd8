package gateway

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hybridperf/internal/cluster"
	"hybridperf/internal/machine"
	"hybridperf/internal/telemetry"
)

// benchGateway is a gateway over 2 in-process shards with the response
// cache off, so every iteration is served by computing: the gateway's own
// cost plus one shard's, over loopback HTTP.
type benchGateway struct {
	url  string
	ring *cluster.Ring
}

// newBenchGateway boots the shards, warms every model the benchmarks use
// on both, and fronts them with a gateway. The gateway knows the shards
// by fixed names, which its transport dials at the shards' listeners, so
// ring ownership — and with it what each benchmark measures — is the
// same on every run.
func newBenchGateway(b *testing.B) *benchGateway {
	b.Helper()
	peers := []string{"http://shard-0.test", "http://shard-1.test"}
	addrs := map[string]string{}
	for i := range peers {
		s := telemetry.NewServer(telemetry.Config{Workers: 2, Seed: 42, Logger: quiet()})
		for _, sys := range []string{"xeon", "arm"} {
			for _, prog := range []string{"SP", "CP", "LB", "FT"} {
				if err := s.Warm(sys, prog); err != nil {
					b.Fatal(err)
				}
			}
		}
		s.SetReady(true)
		ts := httptest.NewServer(s.Handler())
		b.Cleanup(ts.Close)
		addrs[fmt.Sprintf("shard-%d.test:80", i)] = ts.Listener.Addr().String()
	}
	g, err := New(peers, quiet())
	if err != nil {
		b.Fatal(err)
	}
	tr := g.client.Transport.(*http.Transport)
	dial := tr.DialContext
	tr.Proxy = nil
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		return dial(ctx, network, addrs[addr])
	}
	gts := httptest.NewServer(g.Handler())
	b.Cleanup(gts.Close)
	return &benchGateway{url: gts.URL, ring: g.ring}
}

// mixedBatch192 is a class-A batch of 192 tuples, 96 from each of two
// models owned by different shards: the first 96 configurations of each
// model's testbed grid.
func (bg *benchGateway) mixedBatch192(b *testing.B) []byte {
	b.Helper()
	var pairs [][2]string
	owners := map[string]bool{}
	for _, sys := range []string{"xeon", "arm"} {
		for _, prog := range []string{"SP", "CP", "LB", "FT"} {
			if owner := bg.ring.Owner(cluster.ModelKey(sys, prog)); !owners[owner] && len(pairs) < 2 {
				owners[owner] = true
				pairs = append(pairs, [2]string{sys, prog})
			}
		}
	}
	if len(pairs) < 2 {
		b.Fatal("every warmed model has one owner")
	}
	var tuples []string
	for _, p := range pairs {
		prof, err := machine.ByName(p[0])
		if err != nil {
			b.Fatal(err)
		}
		count := 0
		for nodes := 1; nodes <= prof.MaxNodes && count < 96; nodes++ {
			for cores := 1; cores <= prof.CoresPerNode && count < 96; cores++ {
				for _, f := range prof.Frequencies {
					if count < 96 {
						tuples = append(tuples, fmt.Sprintf(`{"system":%q,"program":%q,"nodes":%d,"cores":%d,"freq_ghz":%v}`,
							p[0], p[1], nodes, cores, f/1e9))
						count++
					}
				}
			}
		}
	}
	return []byte(`{"class":"A","tuples":[` + strings.Join(tuples, ",") + `]}`)
}

// run times one request per iteration, after one untimed request that
// opens the connections.
func (bg *benchGateway) run(b *testing.B, route string, body []byte) {
	b.Helper()
	client := &http.Client{}
	post := func() {
		resp, err := client.Post(bg.url+route, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkGatewayPredict measures one /v1/predict through the gateway.
func BenchmarkGatewayPredict(b *testing.B) {
	bg := newBenchGateway(b)
	bg.run(b, "/v1/predict", []byte(`{"system":"xeon","program":"SP","class":"A","nodes":4,"cores":8,"freq_ghz":1.8}`))
}

// BenchmarkGatewayBatch192 measures one 192-tuple /v1/batch split across
// both shards and merged.
func BenchmarkGatewayBatch192(b *testing.B) {
	bg := newBenchGateway(b)
	bg.run(b, "/v1/batch", bg.mixedBatch192(b))
}

// BenchmarkGatewaySweep measures one xeon/SP /v1/sweep over 16 nodes
// (384 configurations) through the gateway.
func BenchmarkGatewaySweep(b *testing.B) {
	bg := newBenchGateway(b)
	bg.run(b, "/v1/sweep", []byte(`{"system":"xeon","program":"SP","class":"A","max_nodes":16}`))
}
