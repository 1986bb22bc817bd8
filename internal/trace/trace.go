// Package trace records per-rank phase timelines of simulated executions —
// compute regions and communication waits — and renders them as a text
// Gantt chart. It is the visual counterpart of the UCR metric: the chart
// shows exactly where the non-useful time of Eq. (14) sits in each rank's
// timeline (and makes rank imbalance and synchronisation skew visible at
// a glance).
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind classifies a phase.
type Kind int

const (
	Compute  Kind = iota // executing work + non-memory pipeline stalls (the model's T_CPU)
	Network              // MPI communication wait (collectives, halo waits)
	MemStall             // stalled on the node's memory controller
	numKinds
)

// mark is the Gantt glyph per kind.
func (k Kind) mark() byte {
	switch k {
	case Compute:
		return '#'
	case Network:
		return '~'
	case MemStall:
		return '='
	}
	return '?'
}

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Network:
		return "network"
	case MemStall:
		return "memstall"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind maps a Kind's String() form back to the Kind — the inverse
// used when phase timelines round-trip through a wire format (the
// distributed-trace payloads carry kinds by name).
func ParseKind(s string) (Kind, bool) {
	switch s {
	case "compute":
		return Compute, true
	case "network":
		return Network, true
	case "memstall":
		return MemStall, true
	}
	return 0, false
}

// Event is one phase of one rank.
type Event struct {
	Rank       int
	Kind       Kind
	Start, End float64 // virtual time [s]
}

// Duration returns the event length.
func (e Event) Duration() float64 { return e.End - e.Start }

// Recorder accumulates events. The zero value is ready to use; a nil
// *Recorder safely ignores Add calls, so instrumentation sites need no
// conditionals. Alongside the events it keeps running per-(rank, kind)
// duration totals (see Recorder.Summary); a recorder made with
// NewSummaryRecorder keeps only those totals.
type Recorder struct {
	events      []Event
	summaryOnly bool                // totals only: events is never appended to
	accepted    int                 // events accepted so far (stored or totalled)
	totals      [][numKinds]float64 // per rank, per kind: summed durations
	limit       int
	dropped     int
}

// NewRecorder creates a recorder holding at most limit events (<= 0 means
// a generous default of 1<<20); past the limit, further events are
// dropped rather than growing without bound.
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = 1 << 20
	}
	return &Recorder{limit: limit}
}

// NewSummaryRecorder creates a recorder that applies exactly the
// acceptance rules of NewRecorder(limit) but stores no events: it keeps
// only the per-(rank, kind) totals Recorder.Summary reports, so a run
// whose timeline is only ever summarised never builds the event slice.
func NewSummaryRecorder(limit int) *Recorder {
	r := NewRecorder(limit)
	r.summaryOnly = true
	return r
}

// Add records one phase. It is a no-op on a nil recorder and on
// zero-length phases (an instrumentation site observing nothing). A
// malformed event — negative rank, a kind outside the defined set,
// non-finite or negative timestamps, or End < Start — would corrupt the
// Gantt layout and the UCR accounting downstream, so it is rejected and
// counted in Dropped instead of being stored; events past the capacity
// limit are likewise dropped and counted.
func (r *Recorder) Add(rank int, kind Kind, start, end float64) {
	if r == nil {
		return
	}
	if rank < 0 || kind < 0 || kind >= numKinds ||
		math.IsNaN(start) || math.IsInf(start, 0) || start < 0 ||
		math.IsNaN(end) || math.IsInf(end, 0) || end < start {
		r.dropped++
		return
	}
	if end == start {
		return
	}
	if r.accepted >= r.limit {
		r.dropped++
		return
	}
	r.accepted++
	for rank >= len(r.totals) {
		r.totals = append(r.totals, [numKinds]float64{})
	}
	// The same subtraction Event.Duration performs, summed in insertion
	// order per (rank, kind) — what keeps Summary bit-equal to the
	// package-level Summary over the stored events.
	r.totals[rank][kind] += end - start
	if !r.summaryOnly {
		r.events = append(r.events, Event{Rank: rank, Kind: kind, Start: start, End: end})
	}
}

// Events returns the recorded events in insertion order (none for a
// recorder made with NewSummaryRecorder).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Dropped reports how many events were rejected as malformed or discarded
// past the capacity limit (zero-length phases are not counted: dropping
// them loses no information).
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Summary reports the total duration per (rank, kind) of every accepted
// event, bit-equal to Summary(r.Events()) on a storing recorder: the
// totals are accumulated in the same order as events arrive. Ranks and
// kinds that saw no event are absent, as there. Nil on a nil recorder.
func (r *Recorder) Summary() map[int]map[Kind]float64 {
	if r == nil {
		return nil
	}
	out := make(map[int]map[Kind]float64)
	for rank, kinds := range r.totals {
		for kind, total := range kinds {
			// An accepted event has End > Start, so its duration — and any
			// total it contributes to — is strictly positive.
			if total == 0 {
				continue
			}
			if out[rank] == nil {
				out[rank] = make(map[Kind]float64)
			}
			out[rank][Kind(kind)] = total
		}
	}
	return out
}

// Summary aggregates total duration per (rank, kind).
func Summary(events []Event) map[int]map[Kind]float64 {
	out := make(map[int]map[Kind]float64)
	for _, e := range events {
		if out[e.Rank] == nil {
			out[e.Rank] = make(map[Kind]float64)
		}
		out[e.Rank][e.Kind] += e.Duration()
	}
	return out
}

// Gantt renders the events as one timeline row per rank over `width`
// columns: '#' compute, '=' memory stall, '~' network wait, ' ' idle.
// Overlapping events of different kinds in one cell resolve to the kind
// covering more of it (ties favour the lower-numbered kind).
func Gantt(events []Event, width int) string {
	if len(events) == 0 {
		return "(no events)\n"
	}
	if width < 20 {
		width = 100
	}
	tMax := 0.0
	ranks := map[int]bool{}
	for _, e := range events {
		tMax = math.Max(tMax, e.End)
		ranks[e.Rank] = true
	}
	if tMax <= 0 {
		return "(no events)\n"
	}
	var ids []int
	for r := range ranks {
		ids = append(ids, r)
	}
	sort.Ints(ids)

	// Per rank and column, the coverage per kind decides the glyph.
	cell := float64(width) / tMax
	var b strings.Builder
	for _, rank := range ids {
		cover := make([][numKinds]float64, width) // per-kind coverage
		for _, e := range events {
			if e.Rank != rank {
				continue
			}
			lo := int(e.Start * cell)
			hi := int(math.Ceil(e.End * cell))
			for c := lo; c < hi && c < width; c++ {
				cs := float64(c) / cell
				ce := float64(c+1) / cell
				ov := math.Min(e.End, ce) - math.Max(e.Start, cs)
				if ov <= 0 {
					continue
				}
				cover[c][int(e.Kind)] += ov
			}
		}
		row := make([]byte, width)
		for c := range row {
			row[c] = ' '
			best := 0.0
			for kind := Kind(0); kind < numKinds; kind++ {
				if cover[c][kind] > best {
					best = cover[c][kind]
					row[c] = kind.mark()
				}
			}
		}
		fmt.Fprintf(&b, "rank %2d |%s|\n", rank, string(row))
	}
	fmt.Fprintf(&b, "        0%*s%.3gs\n", width-4, "", tMax)
	fmt.Fprintf(&b, "        # compute   = memory stall   ~ network   (blank = idle)\n")
	return b.String()
}

// Extent returns the timeline extent: the latest End over all events.
func Extent(events []Event) float64 {
	t := 0.0
	for _, e := range events {
		t = math.Max(t, e.End)
	}
	return t
}

// UCR derives the measured Useful Computation Ratio (paper Eq. 13,
// UCR = T_CPU/T) from a phase timeline: the mean over ranks of recorded
// compute time (work plus non-memory pipeline stalls, exactly the model's
// T_CPU) divided by the timeline span. With the engine recording each
// rank's master thread, this is the measured counterpart of the model's
// predicted UCR. Returns 0 for an empty timeline.
func UCR(events []Event) float64 {
	span := Extent(events)
	if span <= 0 {
		return 0
	}
	sum := Summary(events)
	if len(sum) == 0 {
		return 0
	}
	// Sum in rank order: float addition does not commute at the ULP level,
	// so ranging over the map directly would let two identical traces
	// yield different ratios depending on iteration order.
	ranks := make([]int, 0, len(sum))
	for r := range sum {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	var compute float64
	for _, r := range ranks {
		compute += sum[r][Compute]
	}
	return compute / (span * float64(len(sum)))
}
