package main

import (
	"bufio"
	"fmt"
	"net/http"
	"runtime/metrics"
	"strconv"
	"strings"
)

// scrapedCounters are the program's own /metrics series the benchmark
// reads around each timed phase, summed over label sets and endpoints.
var scrapedCounters = []string{
	"hybridperf_response_cache_hits_total",
	"hybridperf_response_cache_misses_total",
	"hybridperf_response_cache_evictions_total",
	"hybridperf_model_characterizations_total",
	"hybridperf_http_requests_rejected_total",
	"hybridperf_gateway_fanout_total",
	"hybridperf_gateway_fanout_errors_total",
	"hybridperf_gateway_requests_total",
	"hybridperf_engine_events_total",
}

type counters map[string]float64

// scrape sums the scraped counters over every endpoint.
func scrape(urls []string) (counters, error) {
	out := counters{}
	for _, u := range urls {
		resp, err := http.Get(u)
		if err != nil {
			return nil, err
		}
		err = parseExposition(bufio.NewScanner(resp.Body), out)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u, err)
		}
	}
	return out, nil
}

// parseExposition adds every sample of a wanted series in Prometheus text
// format to out.
func parseExposition(sc *bufio.Scanner, out counters) error {
	want := map[string]bool{}
	for _, n := range scrapedCounters {
		want[n] = true
	}
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(line, '{'); i >= 0 && i < len(name) {
			name = line[:i]
			j := strings.LastIndexByte(line, '}')
			if j < 0 {
				return fmt.Errorf("malformed sample %q", line)
			}
			rest = strings.TrimSpace(line[j+1:])
		}
		if !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
		if err != nil {
			return fmt.Errorf("sample %q: %w", line, err)
		}
		out[name] += v
	}
	return sc.Err()
}

func (c counters) minus(before counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// runtimeStats reads the process-wide GC CPU time, total CPU time and
// bytes allocated.
type runtimeStats struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeStats{gcCPU: val(0), totalCPU: val(1), allocBytes: val(2)}
}
