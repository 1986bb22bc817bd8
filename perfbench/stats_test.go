package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {100, 10},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: p50 = %v, want 0", got)
	}
	if got := percentile([]float64{3}, 90); got != 3 {
		t.Errorf("one sample: p90 = %v, want 3", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
}

func TestParseExposition(t *testing.T) {
	text := `# HELP hybridperf_response_cache_hits_total hits
# TYPE hybridperf_response_cache_hits_total counter
hybridperf_response_cache_hits_total 7
hybridperf_gateway_fanout_total{peer="http://a"} 3
hybridperf_gateway_fanout_total{peer="http://b c"} 4
hybridperf_http_requests_total{route="/v1/batch",code="200"} 99
`
	out := counters{}
	if err := parseExposition(bufio.NewScanner(strings.NewReader(text)), out); err != nil {
		t.Fatal(err)
	}
	if out["hybridperf_response_cache_hits_total"] != 7 || out["hybridperf_gateway_fanout_total"] != 7 {
		t.Errorf("parsed %v", out)
	}
	if _, ok := out["hybridperf_http_requests_total"]; ok {
		t.Errorf("unwanted series parsed: %v", out)
	}
}
