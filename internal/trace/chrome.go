package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome-trace (catapult "Trace Event Format") export: the JSON object
// format with one complete event ("ph":"X") per recorded phase, loadable
// in chrome://tracing and Perfetto. Virtual seconds map to microseconds
// (the format's native unit), ranks map to thread ids under a single
// "cluster" process, and a metadata event names each rank's row.

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level JSON object.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes the events as a Chrome-trace JSON object. Events are
// emitted in insertion order (the format does not require sorting); rank
// name metadata rows come first so the viewer labels threads immediately.
func WriteChrome(w io.Writer, events []Event) error {
	const pid = 0
	ranks := map[int]bool{}
	for _, e := range events {
		ranks[e.Rank] = true
	}
	var ids []int
	for r := range ranks {
		ids = append(ids, r)
	}
	sort.Ints(ids)

	out := chromeFile{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(events)+len(ids))}
	for _, r := range ids {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: r,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", r)},
		})
	}
	const usPerSec = 1e6
	for _, e := range events {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: e.Kind.String(),
			Cat:  "phase",
			Ph:   "X",
			Ts:   e.Start * usPerSec,
			Dur:  e.Duration() * usPerSec,
			Pid:  pid,
			Tid:  e.Rank,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Span is a generic named wall-clock interval — the serving layer's unit
// of tracing (HTTP request, characterisation, model evaluation), as
// opposed to Event, which is a rank's virtual-time phase. Times are
// seconds relative to the export's origin.
type Span struct {
	Name       string
	Cat        string
	Start, End float64 // seconds since the origin
}

// assignLanes packs spans onto display lanes (Chrome-trace thread ids):
// two spans may share a lane only if they are disjoint in time or one
// fully contains the other (the viewer renders containment as a flame
// stack, but draws partial overlap on one lane as garbage). Greedy
// first-fit over spans sorted by start (longer first on ties) keeps
// request trees on one lane and pushes concurrent sweep workers onto
// their own. Returns the lane index per span, in input order.
func assignLanes(spans []Span) []int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End
	})
	lanes := make([]int, len(spans))
	var placed [][]Span // per lane, spans placed so far
	for _, idx := range order {
		s := spans[idx]
		lane := -1
		for l, ps := range placed {
			ok := true
			for _, p := range ps {
				disjoint := s.Start >= p.End || s.End <= p.Start
				contained := s.Start >= p.Start && s.End <= p.End
				if !disjoint && !contained {
					ok = false
					break
				}
			}
			if ok {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(placed)
			placed = append(placed, nil)
		}
		placed[lane] = append(placed[lane], s)
		lanes[idx] = lane
	}
	return lanes
}

// ProcessTrace is one process's lane group in a stitched multi-process
// export: the wall-clock spans one hop (gateway or shard) recorded for a
// request, plus optionally an engine phase timeline that hop attached.
// Phase times are virtual seconds starting at zero; PhaseOffset places
// them on the shared wall-clock axis (typically the start of the
// characterisation span that produced them), so the engine lane renders
// inside the span that paid for it.
type ProcessTrace struct {
	Name        string
	Spans       []Span
	Phases      []Event
	PhaseOffset float64 // seconds since the window origin
}

// WriteChromeProcesses writes a stitched multi-process Chrome-trace JSON
// object: each ProcessTrace becomes one pid whose span lanes come first
// (one complete "X" event per span, lanes assigned so that concurrent
// spans never partially overlap on one row) and whose engine phase
// timeline, if any, renders as per-rank rows after them — every process
// on one shared time axis. With more than one process, a process_name
// metadata row names each; a single process needs no name to tell it
// apart. This is the gateway's stitched /debug/trace/{traceid} export —
// one trace id, gateway fan-out spans, per-shard handler spans and the
// sampled engine run, in one file — and a shard's
// /debug/trace?duration window.
func WriteChromeProcesses(w io.Writer, procs []ProcessTrace) error {
	const usPerSec = 1e6
	out := chromeFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for pid, p := range procs {
		if len(procs) > 1 {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": p.Name},
			})
		}
		lanes := assignLanes(p.Spans)
		spanLanes := 0
		for i, s := range p.Spans {
			if lanes[i]+1 > spanLanes {
				spanLanes = lanes[i] + 1
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: s.Name, Cat: s.Cat, Ph: "X",
				Ts: s.Start * usPerSec, Dur: (s.End - s.Start) * usPerSec,
				Pid: pid, Tid: lanes[i],
			})
		}
		if len(p.Phases) == 0 {
			continue
		}
		ranks := map[int]bool{}
		for _, e := range p.Phases {
			ranks[e.Rank] = true
		}
		var ids []int
		for r := range ranks {
			ids = append(ids, r)
		}
		sort.Ints(ids)
		tidByRank := make(map[int]int, len(ids))
		for i, r := range ids {
			tid := spanLanes + i
			tidByRank[r] = tid
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("rank %d", r)},
			})
		}
		for _, e := range p.Phases {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Kind.String(), Cat: "phase", Ph: "X",
				Ts:  (p.PhaseOffset + e.Start) * usPerSec,
				Dur: e.Duration() * usPerSec,
				Pid: pid, Tid: tidByRank[e.Rank],
			})
		}
	}
	return json.NewEncoder(w).Encode(out)
}
