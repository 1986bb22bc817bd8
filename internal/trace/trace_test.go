package trace

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(0)
	r.Add(0, Compute, 0, 1)
	r.Add(0, Network, 1, 1.5)
	r.Add(1, Compute, 0, 2)
	r.Add(0, Compute, 3, 3) // zero length: dropped
	r.Add(0, Compute, 5, 4) // negative: dropped
	if got := len(r.Events()); got != 3 {
		t.Fatalf("%d events, want 3", got)
	}
	if d := r.Events()[1].Duration(); d != 0.5 {
		t.Fatalf("duration %g", d)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Add(0, Compute, 0, 1) // must not panic
	if r.Events() != nil {
		t.Fatal("nil recorder returned events")
	}
}

func TestRecorderLimit(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Add(0, Compute, float64(i), float64(i)+0.5)
	}
	if got := len(r.Events()); got != 2 {
		t.Fatalf("limit ignored: %d events", got)
	}
}

func TestSummary(t *testing.T) {
	events := []Event{
		{Rank: 0, Kind: Compute, Start: 0, End: 2},
		{Rank: 0, Kind: Network, Start: 2, End: 3},
		{Rank: 0, Kind: Compute, Start: 3, End: 4},
		{Rank: 1, Kind: Network, Start: 0, End: 4},
	}
	s := Summary(events)
	if s[0][Compute] != 3 || s[0][Network] != 1 {
		t.Fatalf("rank 0 summary %v", s[0])
	}
	if s[1][Network] != 4 {
		t.Fatalf("rank 1 summary %v", s[1])
	}
}

func TestGanttRendering(t *testing.T) {
	events := []Event{
		{Rank: 0, Kind: Compute, Start: 0, End: 5},
		{Rank: 0, Kind: Network, Start: 5, End: 10},
		{Rank: 1, Kind: Compute, Start: 0, End: 10},
	}
	out := Gantt(events, 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // 2 ranks + axis + legend
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "rank  0") || !strings.HasPrefix(lines[1], "rank  1") {
		t.Fatalf("rank rows missing:\n%s", out)
	}
	// Rank 0: first half compute, second half network.
	row0 := lines[0]
	if !strings.Contains(row0, "#") || !strings.Contains(row0, "~") {
		t.Fatalf("rank 0 row lacks both phases: %q", row0)
	}
	if strings.Contains(lines[1], "~") {
		t.Fatalf("rank 1 should be pure compute: %q", lines[1])
	}
	if !strings.Contains(out, "10s") {
		t.Fatalf("time axis missing:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	if got := Gantt(nil, 40); !strings.Contains(got, "no events") {
		t.Fatalf("empty gantt: %q", got)
	}
}

func TestKindString(t *testing.T) {
	if Compute.String() != "compute" || Network.String() != "network" || MemStall.String() != "memstall" {
		t.Fatal("kind names")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown kind string")
	}
}

func TestRecorderRejectsMalformed(t *testing.T) {
	r := NewRecorder(0)
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		name       string
		rank       int
		kind       Kind
		start, end float64
	}{
		{"negative rank", -1, Compute, 0, 1},
		{"kind below range", 0, Kind(-1), 0, 1},
		{"kind above range", 0, numKinds, 0, 1},
		{"NaN start", 0, Compute, nan, 1},
		{"NaN end", 0, Compute, 0, nan},
		{"+Inf start", 0, Compute, inf, inf},
		{"+Inf end", 0, Compute, 0, inf},
		{"-Inf start", 0, Compute, math.Inf(-1), 1},
		{"negative start", 0, Compute, -0.5, 1},
		{"end before start", 0, Compute, 2, 1},
	}
	for _, c := range bad {
		r.Add(c.rank, c.kind, c.start, c.end)
	}
	if got := len(r.Events()); got != 0 {
		t.Fatalf("%d malformed events stored", got)
	}
	if got := r.Dropped(); got != len(bad) {
		t.Fatalf("Dropped = %d, want %d", got, len(bad))
	}
	// Zero-length events vanish silently, without inflating Dropped.
	r.Add(0, Compute, 1, 1)
	if r.Dropped() != len(bad) || len(r.Events()) != 0 {
		t.Fatal("zero-length event miscounted")
	}
	// A well-formed event still lands.
	r.Add(0, MemStall, 0, 1)
	if len(r.Events()) != 1 {
		t.Fatal("valid event rejected")
	}
}

func TestRecorderLimitCountsDropped(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Add(0, Compute, float64(i), float64(i)+0.5)
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	var nilRec *Recorder
	if nilRec.Dropped() != 0 {
		t.Fatal("nil recorder Dropped")
	}
}

func TestExtent(t *testing.T) {
	if got := Extent(nil); got != 0 {
		t.Fatalf("empty span %g", got)
	}
	events := []Event{
		{Rank: 0, Kind: Compute, Start: 0, End: 2},
		{Rank: 1, Kind: Network, Start: 1, End: 5},
		{Rank: 0, Kind: MemStall, Start: 2, End: 3},
	}
	if got := Extent(events); got != 5 {
		t.Fatalf("span %g, want 5", got)
	}
}

func TestUCR(t *testing.T) {
	if got := UCR(nil); got != 0 {
		t.Fatalf("empty UCR %g", got)
	}
	// Two ranks over a span of 10: rank 0 computes 6s, rank 1 computes 4s
	// (memory stalls and network are not useful computation), so
	// UCR = (6+4)/(2*10) = 0.5.
	events := []Event{
		{Rank: 0, Kind: Compute, Start: 0, End: 6},
		{Rank: 0, Kind: MemStall, Start: 6, End: 8},
		{Rank: 0, Kind: Network, Start: 8, End: 10},
		{Rank: 1, Kind: Compute, Start: 0, End: 4},
		{Rank: 1, Kind: Network, Start: 4, End: 10},
	}
	if got := UCR(events); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("UCR = %g, want 0.5", got)
	}
	// A fully-computing single rank has UCR 1.
	full := []Event{{Rank: 0, Kind: Compute, Start: 0, End: 3}}
	if got := UCR(full); math.Abs(got-1) > 1e-12 {
		t.Fatalf("UCR = %g, want 1", got)
	}
}

func TestGanttMemStallGlyph(t *testing.T) {
	events := []Event{
		{Rank: 0, Kind: Compute, Start: 0, End: 4},
		{Rank: 0, Kind: MemStall, Start: 4, End: 8},
		{Rank: 0, Kind: Network, Start: 8, End: 12},
	}
	out := Gantt(events, 60)
	row := strings.Split(out, "\n")[0]
	for _, glyph := range []string{"#", "=", "~"} {
		if !strings.Contains(row, glyph) {
			t.Fatalf("row lacks %q: %q", glyph, row)
		}
	}
}

// randomPhase draws one Add argument tuple, mixing well-formed phases
// spanning many magnitudes (so summation order shows at the ULP level)
// with zero-length ones and every malformed shape Add rejects: negative
// rank, out-of-range kind, NaN/Inf/negative timestamps and End < Start.
func randomPhase(rnd *rand.Rand) (rank int, kind Kind, start, end float64) {
	rank = rnd.Intn(6) - 1
	kind = Kind(rnd.Intn(int(numKinds)+2) - 1)
	start = rnd.Float64() * math.Pow(10, float64(rnd.Intn(8)-4))
	end = start + rnd.Float64()*math.Pow(10, float64(rnd.Intn(10)-6))
	switch rnd.Intn(10) {
	case 0:
		end = start
	case 1:
		start, end = end, start
	case 2:
		start = math.NaN()
	case 3:
		end = math.Inf(1)
	case 4:
		start = -start - 1
	}
	return
}

// sameTotals reports whether two summaries hold the same (rank, kind)
// keys with bit-identical totals.
func sameTotals(a, b map[int]map[Kind]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for rank, ka := range a {
		kb, ok := b[rank]
		if !ok || len(ka) != len(kb) {
			return false
		}
		for kind, v := range ka {
			w, ok := kb[kind]
			if !ok || math.Float64bits(v) != math.Float64bits(w) {
				return false
			}
		}
	}
	return true
}

// TestRecorderSummaryProperty: the totals a recorder streams are
// bit-equal to Summary over the events it stored, for a storing recorder
// and for a summary-only one fed the same random Add sequence, under the
// same acceptance, zero-length and limit rules.
func TestRecorderSummaryProperty(t *testing.T) {
	f := func(seed int64, limit uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		full := NewRecorder(int(limit))
		sum := NewSummaryRecorder(int(limit))
		for i := 0; i < 400; i++ {
			rank, kind, start, end := randomPhase(rnd)
			full.Add(rank, kind, start, end)
			sum.Add(rank, kind, start, end)
		}
		want := Summary(full.Events())
		return sameTotals(full.Summary(), want) && sameTotals(sum.Summary(), want) &&
			sum.Events() == nil && sum.Dropped() == full.Dropped()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	var nilRec *Recorder
	if nilRec.Summary() != nil {
		t.Fatal("nil recorder returned a summary")
	}
}
