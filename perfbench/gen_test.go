package main

import (
	"bytes"
	"testing"
)

func TestGenerateIsSeeded(t *testing.T) {
	for _, wl := range workloads {
		a, err := generate(wl, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(wl, 7)
		c, _ := generate(wl, 8)
		if len(a) != len(b) {
			t.Fatalf("%s: same seed gave %d and %d requests", wl, len(a), len(b))
		}
		differs := false
		for i := range a {
			if a[i].Route != b[i].Route || !bytes.Equal(a[i].Body, b[i].Body) {
				t.Fatalf("%s: same seed differs at request %d", wl, i)
			}
			if !bytes.Equal(a[i].Body, c[i].Body) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave identical request lists", wl)
		}
	}
}

func TestAdviseListIsDistinctAndBalanced(t *testing.T) {
	list, err := generate(wlAdviseDES, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[adviseBody]bool{}
	perStratum := map[stratum]int{}
	for i, r := range list {
		if seen[*r.Advise] {
			t.Fatalf("request %d repeats %+v", i, *r.Advise)
		}
		seen[*r.Advise] = true
		if i < auditSize {
			a := r.Advise
			perStratum[stratumOf(a.System, a.Program, a.Nodes, a.Cores)]++
		}
	}
	for _, st := range strata {
		if perStratum[st] != auditSize/len(strata) {
			t.Errorf("stratum %+v has %d of the first %d requests, want %d",
				st, perStratum[st], auditSize, auditSize/len(strata))
		}
	}
}

func TestAuditRequestsAreDistinctAndBalanced(t *testing.T) {
	for _, wl := range []string{wlBatchDirect, wlMixedGateway} {
		list, err := generate(wl, 5)
		if err != nil {
			t.Fatal(err)
		}
		reqs := auditRequests(wl, 5, list)
		if len(reqs) != auditSize {
			t.Fatalf("%s: %d audit requests, want %d", wl, len(reqs), auditSize)
		}
		perStratum := map[stratum]int{}
		for _, r := range reqs {
			a := r.Advise
			perStratum[stratumOf(a.System, a.Program, a.Nodes, a.Cores)]++
		}
		if len(perStratum) != len(strata) {
			t.Errorf("%s: audit covers %d of %d strata", wl, len(perStratum), len(strata))
		}
	}
}

func TestUniqueTuples(t *testing.T) {
	b := &batchBody{Class: "A", Tuples: []tuple{
		{"xeon", "SP", 1, 2, 1.8}, {"arm", "LU", 2, 2, 1.4}, {"xeon", "SP", 1, 2, 1.8},
	}}
	if got := len(uniqueTuples(b.Tuples)); got != 2 {
		t.Errorf("uniqueTuples kept %d tuples, want 2", got)
	}
}
