package main

import (
	"math"
	"testing"
)

func TestCheckAdvise(t *testing.T) {
	body := []byte(`{"static":{"time_s":11,"energy_j":90},"baseline_time_s":10,"baseline_energy_j":100,
		"recommended":"slack","policies":[{"policy":"fixed","energy_delta_pct":0.5},
		{"policy":"slack","energy_delta_pct":-2.5},{"policy":"phase","energy_delta_pct":-1}]}`)
	te, ee, sv, err := checkAdvise(body)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(te-10) > 1e-9 || math.Abs(ee-10) > 1e-9 || sv != 2.5 {
		t.Errorf("time err %v, energy err %v, saving %v; want 10, 10, 2.5", te, ee, sv)
	}

	// "fixed" recommended because nothing beat the static point: no saving.
	body = []byte(`{"static":{"time_s":10,"energy_j":100},"baseline_time_s":10,"baseline_energy_j":100,
		"recommended":"fixed","policies":[{"policy":"fixed","energy_delta_pct":0.5}]}`)
	if _, _, sv, err := checkAdvise(body); err != nil || sv != 0 {
		t.Errorf("saving %v, err %v; want 0, nil", sv, err)
	}

	for _, bad := range []string{
		`{"baseline_time_s":10,"baseline_energy_j":100,"recommended":"turbo"}`,
		`{"baseline_time_s":0,"baseline_energy_j":100,"recommended":"fixed"}`,
		`not json`,
	} {
		if _, _, _, err := checkAdvise([]byte(bad)); err == nil {
			t.Errorf("checkAdvise(%s) accepted a bad answer", bad)
		}
	}
}
