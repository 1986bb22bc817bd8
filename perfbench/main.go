// Command perfbench is hybridperf's end-to-end benchmark. It starts the
// serving stack in-process on loopback ports, replays a request list
// generated from the workload seed with a closed loop of two clients,
// checks the answers, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload batch-direct --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 adds traced phases
// and reports the per-layer metrics, the layer-share table and a
// Chrome-trace span file. README.md gives each workload's rationale and
// the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// Run-shape constants. setupBoots boots the stack several times so
// setup_s is a median; auditSize advisory answers give the accuracy
// metrics; one answer in keepEvery is kept for the output checks.
const (
	setupBoots = 6
	warmup     = time.Second
	auditSize  = 384
	keepEvery  = 32
)

// workDir holds everything a run writes, inside the directory it runs in.
const workDir = ".perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "request-list seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run: set-up, warm-up, the timed phase (or,
// traced, an untraced and a traced half), output checks and the accuracy
// audit.
func run(workload string, seed int64, dur time.Duration, traced bool) (*result, error) {
	list, err := generate(workload, seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	orc, err := newOracle()
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Half the boots run before the timed phase and half after it, so
	// setup_s samples the whole run rather than its first seconds.
	var setups []float64
	var warms []time.Duration
	timeBoot := func() (*stack, error) {
		runtime.GC()
		t0 := time.Now()
		st, err := boot(workload, storePath(dir, len(setups)), tr)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		warms = append(warms, st.warm...)
		return st, nil
	}
	var st *stack
	for b := 0; b < setupBoots/2; b++ {
		if st != nil {
			st.close()
		}
		if st, err = timeBoot(); err != nil {
			return nil, err
		}
	}
	defer st.close()

	d := newLoader(st.entry, list)
	defer d.close()
	// advise-des keeps every answer: each is checked, and the first
	// auditSize are the accuracy audit.
	keepAll := workload == wlAdviseDES
	if keepAll {
		d.keep = func(int64) bool { return true }
	}
	warm := d.run(warmup)
	d.keep = func(idx int64) bool { return keepAll || mix(seed, idx)%keepEvery == 0 }
	timedDur := dur
	if traced {
		timedDur = dur / 3
	}
	before, err := scrape(st.metricURLs())
	if err != nil {
		return nil, err
	}
	rtBefore := readRuntime()
	stopHeap := sampleHeap()
	timed := d.run(timedDur)
	peakHeap := stopHeap()
	rtAfter := readRuntime()
	after, err := scrape(st.metricURLs())
	if err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	res.Attempted = len(warm.Samples) + len(timed.Samples)
	res.Failed = warm.failed() + timed.failed()
	if len(timed.Samples) == 0 || res.Failed > 0 {
		res.Correct = false
	}
	if err := checkOutputs(workload, orc, st, d, timed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", err)
		res.Correct = false
		res.Failed++
	}
	// Traced, the timed phase is followed by a phase that records spans,
	// whose latency against the untraced phase is the tracing overhead,
	// and a phase that also replays each request's layer calls.
	var tracedPhase, replayPhase *phase
	var rp *replays
	if traced {
		tr.on.Store(true)
		d.tr = tr
		d.keep = nil
		tracedPhase = d.run(timedDur)
		rp = newReplays(orc, tr)
		d.after = rp.replay
		replayPhase = d.run(timedDur)
		d.after = nil
		tr.on.Store(false)
		d.tr = nil
		for _, p := range []*phase{tracedPhase, replayPhase} {
			res.Attempted += len(p.Samples)
			res.Failed += p.failed()
		}
		if res.Failed > 0 {
			res.Correct = false
		}
		if rp.err != nil {
			return nil, rp.err
		}
	}
	var known map[int64][]byte
	if keepAll {
		known = warm.Bodies
		for idx, b := range timed.Bodies {
			known[idx] = b
		}
	}
	acc, sent, err := audit(workload, seed, d, list, known)
	res.Attempted += sent
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: accuracy audit failed:", err)
		res.Correct = false
		res.Failed++
	} else if acc.timeErr >= 15 || acc.energyErr >= 15 {
		fmt.Fprintf(os.Stderr, "perfbench: mean model error %.2f %% time, %.2f %% energy exceeds the paper's 15 %%\n",
			acc.timeErr, acc.energyErr)
		res.Correct = false
	}
	for len(setups) < setupBoots {
		extra, err := timeBoot()
		if err != nil {
			return nil, err
		}
		extra.close()
	}
	printSummary(workload, timed)
	fmt.Printf("  setup %.3f s (median of %v s)\n", median(setups), setups)

	if !traced {
		res.Metrics = endToEnd(timed, peakHeap)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["model_time_err_pct"] = metric{acc.timeErr, "%"}
		res.Metrics["model_energy_err_pct"] = metric{acc.energyErr, "%"}
		return res, nil
	}
	lm, err := layerMetrics(layerInput{
		workload: workload, seed: seed, dir: dir, list: list, stack: st, loader: d, tracer: tr, oracle: orc,
		untraced: timed, traced: tracedPhase, replayed: replayPhase, replays: rp, warms: warms,
		counters: after.minus(before), runtime: [2]runtimeStats{rtBefore, rtAfter},
	})
	if err != nil {
		return nil, err
	}
	lm["characterize.advice_saving_pct"] = metric{acc.saving, "%"}
	res.Metrics = lm
	return res, nil
}

// endToEnd computes the user-visible metrics of a timed phase.
func endToEnd(p *phase, peakHeap float64) map[string]metric {
	var lats []float64
	preds := 0
	for _, s := range p.Samples {
		if s.OK {
			lats = append(lats, float64(s.Lat)/1e6)
			preds += s.Preds
		}
	}
	secs := p.Elapsed.Seconds()
	return map[string]metric{
		"throughput_rps": {float64(len(lats)) / secs, "1/s"},
		"preds_per_s":    {float64(preds) / secs, "1/s"},
		"latency_p50_ms": {percentile(lats, 50), "ms"},
		"latency_p90_ms": {percentile(lats, 90), "ms"},
		"mem_peak_mb":    {peakHeap / (1 << 20), "MiB"},
	}
}

// printSummary writes per-route latency to stdout, above the JSON result
// line that tools parse.
func printSummary(workload string, p *phase) {
	byRoute := map[string][]float64{}
	for _, s := range p.Samples {
		if s.OK {
			byRoute[s.Route] = append(byRoute[s.Route], float64(s.Lat)/1e6)
		}
	}
	routes := make([]string, 0, len(byRoute))
	for r := range byRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	fmt.Printf("%s: %d requests in %.2f s\n", workload, len(p.Samples), p.Elapsed.Seconds())
	for _, r := range routes {
		l := byRoute[r]
		fmt.Printf("  %-12s n=%-6d p50 %.3f ms  p90 %.3f ms\n", r, len(l), percentile(l, 50), percentile(l, 90))
	}
}

// sampleHeap polls the live heap until the returned stop function is
// called, which returns the largest value seen in bytes.
func sampleHeap() func() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() float64 {
		metrics.Read(s)
		return float64(s[0].Value.Uint64())
	}
	var peak float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			peak = math.Max(peak, read())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		return math.Max(peak, read())
	}
}

// mix hashes a list position with the seed (splitmix64), so which
// answers are kept for checking is seeded but independent of timing.
func mix(seed, idx int64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
