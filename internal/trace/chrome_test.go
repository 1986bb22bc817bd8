package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// chromeDoc mirrors the exported object shape for round-trip decoding.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChrome(t *testing.T) {
	events := []Event{
		{Rank: 1, Kind: Compute, Start: 0, End: 0.5},
		{Rank: 0, Kind: Network, Start: 0.5, End: 0.75},
		{Rank: 0, Kind: MemStall, Start: 0.75, End: 1},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	// Two rank-name metadata rows (ranks 0 and 1, sorted), then the phases.
	if len(doc.TraceEvents) != 2+len(events) {
		t.Fatalf("%d trace events, want %d", len(doc.TraceEvents), 2+len(events))
	}
	meta0 := doc.TraceEvents[0]
	if meta0.Ph != "M" || meta0.Name != "thread_name" || meta0.Tid != 0 {
		t.Fatalf("first metadata row: %+v", meta0)
	}
	if name, _ := meta0.Args["name"].(string); !strings.Contains(name, "0") {
		t.Fatalf("rank 0 label %q", name)
	}
	first := doc.TraceEvents[2]
	if first.Ph != "X" || first.Name != "compute" || first.Cat != "phase" {
		t.Fatalf("first phase event: %+v", first)
	}
	if first.Tid != 1 || first.Ts != 0 || first.Dur != 0.5e6 {
		t.Fatalf("virtual seconds must map to microseconds: %+v", first)
	}
	last := doc.TraceEvents[4]
	if last.Name != "memstall" || last.Ts != 0.75e6 || last.Dur != 0.25e6 {
		t.Fatalf("last phase event: %+v", last)
	}
}

// TestWriteChromeProcesses: span lanes within a process, and process
// names only where there is more than one process to tell apart.
func TestWriteChromeProcesses(t *testing.T) {
	// A request tree: the http span contains a characterize span which
	// contains two concurrent run spans that partially overlap each other.
	spans := []Span{
		{Name: "http POST /v1/predict", Cat: "http", Start: 0, End: 1},
		{Name: "characterize", Cat: "model", Start: 0.1, End: 0.9},
		{Name: "run A", Cat: "exec", Start: 0.2, End: 0.6},
		{Name: "run B", Cat: "exec", Start: 0.4, End: 0.8},
		{Name: "http GET /metrics", Cat: "http", Start: 1.5, End: 1.6},
	}
	var buf bytes.Buffer
	if err := WriteChromeProcesses(&buf, []ProcessTrace{{Name: "shard", Spans: spans}}); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(spans) {
		t.Fatalf("%d trace events, want %d", len(doc.TraceEvents), len(spans))
	}
	byName := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("span event %+v is not a complete event", e)
		}
		byName[e.Name] = e.Tid
	}
	// Nested spans share the root's lane; the partially-overlapping sibling
	// run moves to its own lane; the disjoint later request reuses lane 0.
	if byName["characterize"] != byName["http POST /v1/predict"] {
		t.Fatalf("contained span should share its parent's lane: %v", byName)
	}
	if byName["run B"] == byName["run A"] {
		t.Fatalf("partially overlapping spans must not share a lane: %v", byName)
	}
	if byName["http GET /metrics"] != byName["http POST /v1/predict"] {
		t.Fatalf("disjoint span should reuse the first lane: %v", byName)
	}
	first := doc.TraceEvents[0]
	if first.Ts != 0 || first.Dur != 1e6 {
		t.Fatalf("seconds must map to microseconds: %+v", first)
	}

	buf.Reset()
	procs := []ProcessTrace{{Name: "gateway", Spans: spans[:1]}, {Name: "shard", Spans: spans[1:2]}}
	if err := WriteChromeProcesses(&buf, procs); err != nil {
		t.Fatal(err)
	}
	doc = chromeDoc{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	names := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			names[e.Pid], _ = e.Args["name"].(string)
		}
	}
	if names[0] != "gateway" || names[1] != "shard" || len(names) != 2 {
		t.Errorf("process names %v, want gateway and shard", names)
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("empty timeline produced %d events", len(doc.TraceEvents))
	}
}
