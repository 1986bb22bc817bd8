package telemetry

import (
	"strings"
	"testing"
)

// TestTraceparentRoundTrip: a minted context survives the wire form —
// render, parse, compare — with the sampled flag intact either way.
func TestTraceparentRoundTrip(t *testing.T) {
	for _, sampled := range []bool{true, false} {
		tc := NewTrace(sampled)
		wire := tc.Traceparent()
		if len(wire) != 55 || !strings.HasPrefix(wire, "00-") {
			t.Fatalf("malformed traceparent %q", wire)
		}
		wantFlags := "00"
		if sampled {
			wantFlags = "01"
		}
		if got := wire[53:]; got != wantFlags {
			t.Errorf("sampled=%v rendered flags %q, want %q", sampled, got, wantFlags)
		}
		back, ok := ParseTraceparent(wire)
		if !ok {
			t.Fatalf("own wire form rejected: %q", wire)
		}
		if back != tc {
			t.Errorf("round trip changed the context:\n sent %+v\n got  %+v", tc, back)
		}
	}
}

// TestChildKeepsTraceNewSpan: a downstream hop shares the trace id and
// the sampling decision but owns a fresh span id — so one grep finds
// every hop while each hop's request id stays distinct.
func TestChildKeepsTraceNewSpan(t *testing.T) {
	tc := NewTrace(true)
	child := tc.Child()
	if child.TraceID != tc.TraceID {
		t.Error("Child changed the trace id")
	}
	if child.SpanID == tc.SpanID {
		t.Error("Child reused the parent's span id")
	}
	if !child.Sampled {
		t.Error("Child dropped the sampled flag")
	}
	if child.TraceIDString() != tc.TraceIDString() {
		t.Error("TraceIDString differs between parent and child")
	}
	if child.RequestID() == tc.RequestID() {
		t.Error("parent and child share a request id")
	}
}

// TestRequestIDShape: "r-<32 hex trace>.<16 hex span>" — the trace id is
// embedded whole, so the access-log id correlates with /debug/trace keys.
func TestRequestIDShape(t *testing.T) {
	tc := NewTrace(false)
	id := tc.RequestID()
	if len(id) != 51 || !strings.HasPrefix(id, "r-") || id[34] != '.' {
		t.Fatalf("request id shape %q", id)
	}
	if got := id[2:34]; got != tc.TraceIDString() {
		t.Errorf("request id carries trace %q, want %q", got, tc.TraceIDString())
	}
}

// TestParseTraceparentRejects: anything but the version-00 fixed form —
// wrong length, wrong version, bad separators, non-hex, the invalid
// all-zero ids — reports false so the receiver mints a fresh context.
func TestParseTraceparentRejects(t *testing.T) {
	valid := NewTrace(true).Traceparent()
	cases := map[string]string{
		"empty":          "",
		"truncated":      valid[:54],
		"overlong":       valid + "0",
		"version 01":     "01" + valid[2:],
		"version ff":     "ff" + valid[2:],
		"bad separator":  valid[:35] + "_" + valid[36:],
		"non-hex trace":  valid[:3] + "zz" + valid[5:],
		"non-hex span":   valid[:36] + "zz" + valid[38:],
		"non-hex flags":  valid[:53] + "zz",
		"all-zero trace": "00-00000000000000000000000000000000-" + valid[36:],
		"all-zero span":  valid[:36] + "0000000000000000-01",
	}
	for name, wire := range cases {
		if _, ok := ParseTraceparent(wire); ok {
			t.Errorf("%s accepted: %q", name, wire)
		}
	}
}

// TestParseTraceparentFlags: only bit 0 of the flags byte means sampled.
func TestParseTraceparentFlags(t *testing.T) {
	base := NewTrace(false).Traceparent()[:53]
	for flags, want := range map[string]bool{"00": false, "01": true, "ff": true, "fe": false} {
		tc, ok := ParseTraceparent(base + flags)
		if !ok {
			t.Fatalf("flags %q rejected", flags)
		}
		if tc.Sampled != want {
			t.Errorf("flags %q parsed sampled=%v, want %v", flags, tc.Sampled, want)
		}
	}
}

// TestNewTraceUnique: two mints never collide — the per-process XOR
// counter construction guarantees it.
func TestNewTraceUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTrace(false).TraceIDString()
		if seen[id] {
			t.Fatalf("trace id %q repeated", id)
		}
		seen[id] = true
	}
}

// FuzzParseTraceparent: parsing an arbitrary header never panics, and a
// header it accepts re-renders through Traceparent to a header that
// parses back to the same context. The seed corpus in
// testdata/fuzz/FuzzParseTraceparent holds the valid and rejected forms
// of TestTraceparentRoundTrip and TestParseTraceparentRejects.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(NewTrace(true).Traceparent())
	f.Fuzz(func(t *testing.T, header string) {
		tc, ok := ParseTraceparent(header)
		if !ok {
			return
		}
		wire := tc.Traceparent()
		back, ok := ParseTraceparent(wire)
		if !ok {
			t.Fatalf("%q parsed, but its re-rendering %q does not", header, wire)
		}
		if back != tc {
			t.Fatalf("%q parsed to %+v, its re-rendering %q to %+v", header, tc, wire, back)
		}
	})
}
