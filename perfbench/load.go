package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hybridperf/internal/telemetry"
)

// clients is the closed-loop concurrency: every caller waits for its
// reply before sending again, and the benchmark host has two CPUs.
const clients = 2

// sample is one request as the client saw it.
type sample struct {
	Idx    int64 // position in the request list (before wrapping)
	Route  string
	Lat    int64 // client round trip, send to last body byte [ns]
	Preds  int   // X-Hybridperf-Predictions of the answer
	OK     bool
	SpanID int // client span, traced phase only
}

// phase is the outcome of one timed phase.
type phase struct {
	Samples []sample
	Elapsed time.Duration
	// Bodies holds the answers of the list positions keep selected.
	Bodies map[int64][]byte
	// Errors holds the first few failure descriptions.
	Errors []string
}

func (p *phase) failed() int {
	n := 0
	for _, s := range p.Samples {
		if !s.OK {
			n++
		}
	}
	return n
}

// loader replays a request list against one base URL.
type loader struct {
	client *http.Client
	entry  string
	list   []request
	next   atomic.Int64 // next list position to send
	tr     *tracer      // non-nil: record client spans and send traceparent
	keep   func(idx int64) bool
	// after, when set, runs on the client's goroutine after each
	// successful traced request, before the client sends its next one.
	after func(req request, client span)
}

func newLoader(entry string, list []request) *loader {
	return &loader{
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients},
		},
		entry: entry,
		list:  list,
	}
}

func (d *loader) close() { d.client.CloseIdleConnections() }

// run drives the closed loop for dur and returns every completed request.
func (d *loader) run(dur time.Duration) *phase {
	var mu sync.Mutex
	out := &phase{Bodies: map[int64][]byte{}}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for time.Now().Before(deadline) {
				idx := d.next.Add(1) - 1
				req := d.list[idx%int64(len(d.list))]
				s, body, err := d.send(idx, req)
				local = append(local, s)
				if err == nil && d.after != nil && s.SpanID != 0 {
					d.after(req, d.tr.get(s.SpanID))
				}
				if err != nil || (body != nil) {
					mu.Lock()
					if err != nil && len(out.Errors) < 5 {
						out.Errors = append(out.Errors, fmt.Sprintf("%s #%d: %v", req.Route, idx, err))
					}
					if body != nil {
						out.Bodies[idx] = body
					}
					mu.Unlock()
				}
			}
			mu.Lock()
			out.Samples = append(out.Samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.Elapsed = time.Since(start)
	for _, e := range out.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: request failed:", e)
	}
	return out
}

// send posts one request. The answer's body is returned only when keep
// selects its list position.
func (d *loader) send(idx int64, req request) (sample, []byte, error) {
	s := sample{Idx: idx, Route: req.Route}
	hreq, err := http.NewRequest(http.MethodPost, d.entry+req.Route, bytes.NewReader(req.Body))
	if err != nil {
		return s, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	var tc telemetry.TraceContext
	if d.tr != nil {
		// Flags 00: the program records nothing; the id only correlates
		// the gateway's and the shards' handler spans with this request.
		tc = telemetry.NewTrace(false)
		hreq.Header.Set(telemetry.TraceparentHeader, tc.Traceparent())
	}
	keep := d.keep != nil && d.keep(idx)
	var tStart int64
	if d.tr != nil {
		tStart = d.tr.now()
	}
	t0 := time.Now()
	resp, err := d.client.Do(hreq)
	if err != nil {
		return s, nil, err
	}
	var body []byte
	if keep {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	s.Lat = int64(time.Since(t0))
	if d.tr != nil {
		s.SpanID = d.tr.add(span{Trace: tc.TraceIDString(), Name: layerClient, Route: req.Route,
			Start: tStart, End: d.tr.now()})
	}
	if err != nil {
		return s, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	s.Preds, err = strconv.Atoi(resp.Header.Get(telemetry.PredictionsHeader))
	if err != nil || s.Preds < 1 {
		return s, nil, fmt.Errorf("bad %s header %q", telemetry.PredictionsHeader, resp.Header.Get(telemetry.PredictionsHeader))
	}
	if req.Preds != 0 && s.Preds != req.Preds {
		return s, nil, fmt.Errorf("answer carries %d predictions, want %d", s.Preds, req.Preds)
	}
	s.OK = true
	return s, body, nil
}
