package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"

	"hybridperf"
	"hybridperf/internal/dvfs"
)

// oracle holds the library's own models — hybridperf.Characterize with the
// servers' seed — that served predictions must equal bit for bit.
type oracle map[[2]string]*hybridperf.Model

func newOracle() (oracle, error) {
	out := oracle{}
	for _, sys := range systems {
		s, err := hybridperf.SystemByName(sys)
		if err != nil {
			return nil, err
		}
		for _, prog := range programs {
			p, err := hybridperf.ProgramByName(prog)
			if err != nil {
				return nil, err
			}
			m, err := hybridperf.Characterize(s, p, &hybridperf.CharacterizeOptions{Seed: 42})
			if err != nil {
				return nil, fmt.Errorf("characterize %s/%s: %w", sys, prog, err)
			}
			out[[2]string{sys, prog}] = m
		}
	}
	return out, nil
}

// Answer shapes, decoded only as far as the checks need.
type predictionAnswer struct {
	Config struct {
		Nodes   int     `json:"nodes"`
		Cores   int     `json:"cores"`
		FreqGHz float64 `json:"freq_ghz"`
	} `json:"config"`
	TimeS   float64 `json:"time_s"`
	EnergyJ float64 `json:"energy_j"`
	UCR     float64 `json:"ucr"`
}

type batchAnswer struct {
	Count   int `json:"count"`
	Results []struct {
		System  string `json:"system"`
		Program string `json:"program"`
		predictionAnswer
	} `json:"results"`
}

type adviseAnswer struct {
	Static          predictionAnswer `json:"static"`
	BaselineTimeS   float64          `json:"baseline_time_s"`
	BaselineEnergyJ float64          `json:"baseline_energy_j"`
	Recommended     string           `json:"recommended"`
	Policies        []struct {
		Policy         string  `json:"policy"`
		EnergyDeltaPct float64 `json:"energy_delta_pct"`
	} `json:"policies"`
}

// checkBatch verifies one /v1/batch answer: exactly one result per
// distinct tuple, each equal to the library's own prediction.
func (o oracle) checkBatch(req *batchBody, body []byte) error {
	var ans batchAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return fmt.Errorf("batch answer: %w", err)
	}
	want := uniqueTuples(req.Tuples)
	if ans.Count != len(want) || len(ans.Results) != len(want) {
		return fmt.Errorf("batch answer has count %d and %d results for %d distinct tuples",
			ans.Count, len(ans.Results), len(want))
	}
	index := make(map[tuple]bool, len(want))
	for _, t := range want {
		index[t] = true
	}
	class := hybridperf.Class(req.Class)
	for _, r := range ans.Results {
		t := tuple{System: r.System, Program: r.Program, Nodes: r.Config.Nodes, Cores: r.Config.Cores, FreqGHz: r.Config.FreqGHz}
		if !index[t] {
			return fmt.Errorf("batch answer carries %+v, which the request did not ask for", t)
		}
		delete(index, t)
		if err := o.checkPrediction(t, class, &r.predictionAnswer); err != nil {
			return err
		}
	}
	return nil
}

func (o oracle) checkPrediction(t tuple, class hybridperf.Class, got *predictionAnswer) error {
	m := o[[2]string{t.System, t.Program}]
	if m == nil {
		return fmt.Errorf("no oracle model for %s/%s", t.System, t.Program)
	}
	cfg := hybridperf.Config{Nodes: t.Nodes, Cores: t.Cores, Freq: freqHz(m.System(), t.FreqGHz)}
	p, err := m.Predict(cfg, class)
	if err != nil {
		return fmt.Errorf("oracle predict %+v: %w", t, err)
	}
	if got.TimeS != p.T || got.EnergyJ != p.E || got.UCR != p.UCR {
		return fmt.Errorf("%+v class %s: served (%v s, %v J, ucr %v), library (%v s, %v J, ucr %v)",
			t, class, got.TimeS, got.EnergyJ, got.UCR, p.T, p.E, p.UCR)
	}
	return nil
}

// freqHz maps a wire frequency back to the profile's exact DVFS level.
func freqHz(sys *hybridperf.System, ghz float64) float64 {
	for _, f := range sys.Frequencies {
		if f/1e9 == ghz {
			return f
		}
	}
	return ghz * 1e9
}

// checkAdvise verifies one /v1/advise answer and returns its model error
// and energy saving.
func checkAdvise(body []byte) (timeErr, energyErr, saving float64, err error) {
	var ans adviseAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return 0, 0, 0, fmt.Errorf("advise answer: %w", err)
	}
	if !dvfs.ValidPolicy(ans.Recommended) {
		return 0, 0, 0, fmt.Errorf("recommended policy %q is not in the suite %v", ans.Recommended, dvfs.Policies())
	}
	if !(ans.BaselineTimeS > 0 && ans.BaselineEnergyJ > 0) {
		return 0, 0, 0, fmt.Errorf("degenerate baseline (%v s, %v J)", ans.BaselineTimeS, ans.BaselineEnergyJ)
	}
	timeErr = math.Abs(ans.Static.TimeS-ans.BaselineTimeS) / ans.BaselineTimeS * 100
	energyErr = math.Abs(ans.Static.EnergyJ-ans.BaselineEnergyJ) / ans.BaselineEnergyJ * 100
	for _, p := range ans.Policies {
		if p.Policy == ans.Recommended && p.EnergyDeltaPct < 0 {
			saving = -p.EnergyDeltaPct
		}
	}
	return timeErr, energyErr, saving, nil
}

// post sends one body and returns the answer.
func post(client *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, out)
	}
	return out, nil
}

// postAll sends every request on the closed loop's clients and returns
// the answers in list order.
func postAll(client *http.Client, base string, reqs []request) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += clients {
				out[i], errs[i] = post(client, base+reqs[i].Route, reqs[i].Body)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
