package main

import (
	"bytes"
	"fmt"
	"math/rand"
)

// accuracy is the served model's accuracy and advice over an audit of
// auditSize advisory answers.
type accuracy struct {
	timeErr, energyErr, saving float64 // means, in percent
}

// auditRequests picks the advisory points whose answers measure served
// accuracy: auditSize points, the same number from every stratum. On
// advise-des they are the first requests of its own list, which the
// warm-up and timed phases have usually answered already. On the other
// workloads they are the first distinct (system, program, nodes, cores)
// of each stratum that the traffic asked about, at class S with a seeded
// 1-10 % makespan tolerance.
func auditRequests(workload string, seed int64, list []request) []request {
	if workload == wlAdviseDES {
		return list[:auditSize]
	}
	quota := auditSize / len(strata)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	taken := map[stratum]int{}
	type point struct {
		sys, prog    string
		nodes, cores int
	}
	seen := map[point]bool{}
	var out []request
	add := func(sys, prog string, nodes, cores int) {
		k, st := point{sys, prog, nodes, cores}, stratumOf(sys, prog, nodes, cores)
		if seen[k] || taken[st] == quota {
			return
		}
		seen[k] = true
		taken[st]++
		out = append(out, adviseRequest(adviseBody{
			System: sys, Program: prog, Class: "S", Nodes: nodes, Cores: cores,
			MaxSlowdownPct: float64(1 + rng.Intn(10)),
		}))
	}
	for _, r := range list {
		switch {
		case r.Batch != nil:
			for _, t := range r.Batch.Tuples {
				add(t.System, t.Program, t.Nodes, t.Cores)
			}
		case r.Predict != nil:
			add(r.Predict.System, r.Predict.Program, r.Predict.Nodes, r.Predict.Cores)
		}
		if len(out) == quota*len(strata) {
			break
		}
	}
	return out
}

// audit averages model error and advised saving over the audit's
// answers and returns how many requests it sent. known holds answers
// already received by list position, which on advise-des are the
// audit's own positions; the rest are sent to the workload's entry point.
func audit(workload string, seed int64, d *loader, list []request, known map[int64][]byte) (accuracy, int, error) {
	reqs := auditRequests(workload, seed, list)
	if len(reqs) != auditSize {
		return accuracy{}, 0, fmt.Errorf("audit found %d distinct points, want %d", len(reqs), auditSize)
	}
	answers := make([][]byte, len(reqs))
	var missing []request
	var at []int
	for i, r := range reqs {
		if b, ok := known[int64(i)]; ok {
			answers[i] = b
			continue
		}
		missing = append(missing, r)
		at = append(at, i)
	}
	sent, err := postAll(d.client, d.entry, missing)
	if err != nil {
		return accuracy{}, len(missing), err
	}
	for j, b := range sent {
		answers[at[j]] = b
	}
	var acc accuracy
	for _, body := range answers {
		te, ee, sv, err := checkAdvise(body)
		if err != nil {
			return accuracy{}, len(missing), err
		}
		acc.timeErr += te
		acc.energyErr += ee
		acc.saving += sv
	}
	n := float64(len(answers))
	acc.timeErr, acc.energyErr, acc.saving = acc.timeErr/n, acc.energyErr/n, acc.saving/n
	return acc, len(missing), nil
}

// checkOutputs runs the workload's output checks on the answers kept
// during the timed phase.
func checkOutputs(workload string, orc oracle, st *stack, d *loader, p *phase) error {
	if len(p.Bodies) == 0 {
		return fmt.Errorf("no answers were kept for checking")
	}
	for idx, body := range p.Bodies {
		req := d.list[idx%int64(len(d.list))]
		switch workload {
		case wlBatchDirect:
			if err := orc.checkBatch(req.Batch, body); err != nil {
				return fmt.Errorf("request #%d: %w", idx, err)
			}
		case wlMixedGateway:
			// The same request sent to one shard directly must get the
			// same bytes the gateway relayed or merged.
			direct, err := post(d.client, st.shards[0].http.URL+req.Route, req.Body)
			if err != nil {
				return fmt.Errorf("request #%d direct: %w", idx, err)
			}
			if !bytes.Equal(direct, body) {
				return fmt.Errorf("request #%d %s: gateway answer (%d bytes) differs from a single shard's (%d bytes)",
					idx, req.Route, len(body), len(direct))
			}
		case wlAdviseDES:
			if _, _, _, err := checkAdvise(body); err != nil {
				return fmt.Errorf("request #%d: %w", idx, err)
			}
		}
	}
	return nil
}
