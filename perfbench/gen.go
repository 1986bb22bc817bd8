package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hybridperf/internal/dvfs"
	"hybridperf/internal/machine"
)

// Workload names, as BENCHMARK.json and later issues cite them.
const (
	wlBatchDirect  = "batch-direct"
	wlMixedGateway = "mixed-gateway"
	wlAdviseDES    = "advise-des"
)

var workloads = []string{wlBatchDirect, wlMixedGateway, wlAdviseDES}

// Routes the benchmark sends.
const (
	routePredict = "/v1/predict"
	routeBatch   = "/v1/batch"
	routeSweep   = "/v1/sweep"
	routeAdvise  = "/v1/advise"
)

var (
	systems  = []string{"xeon", "arm"}
	programs = []string{"LU", "SP", "BT", "CP", "LB", "FT"}
)

// Wire shapes of the requests. Field order is fixed by the struct, so a
// request list marshals to the same bytes on every run of a seed. No
// request carries an "engine" field: the server's default engine serves
// every workload.
type tuple struct {
	System  string  `json:"system"`
	Program string  `json:"program"`
	Nodes   int     `json:"nodes"`
	Cores   int     `json:"cores"`
	FreqGHz float64 `json:"freq_ghz"`
}

type predictBody struct {
	System  string  `json:"system"`
	Program string  `json:"program"`
	Class   string  `json:"class"`
	Nodes   int     `json:"nodes"`
	Cores   int     `json:"cores"`
	FreqGHz float64 `json:"freq_ghz"`
}

type batchBody struct {
	Class  string  `json:"class"`
	Tuples []tuple `json:"tuples"`
}

type sweepBody struct {
	System   string `json:"system"`
	Program  string `json:"program"`
	Class    string `json:"class"`
	MaxNodes int    `json:"max_nodes"`
}

type adviseBody struct {
	System         string  `json:"system"`
	Program        string  `json:"program"`
	Class          string  `json:"class"`
	Nodes          int     `json:"nodes"`
	Cores          int     `json:"cores"`
	MaxSlowdownPct float64 `json:"max_slowdown_pct"`
}

// request is one generated request: the bytes sent plus the decoded
// parameters the checks and the traced replays need.
type request struct {
	Route   string
	Body    []byte
	Predict *predictBody
	Batch   *batchBody
	Sweep   *sweepBody
	Advise  *adviseBody
	// Preds is the prediction count the answer must report in its
	// X-Hybridperf-Predictions header; 0 when it depends on the answer
	// (a sweep reports its frontier size).
	Preds int
}

// Request-list sizes. Each list is longer than one run consumes on the
// hardware the benchmark was tuned on for advise-des (so every advise key
// is distinct); the batch lists are replayed cyclically, and a body comes
// round again only after thousands of other insertions have pushed it
// out of the 512-entry response cache.
const (
	batchListLen   = 4096
	mixedListLen   = 4096
	adviseListLen  = 2048
	hotBatchBodies = 32
	maxBatchTuples = 192
	maxSweepNodes  = 16
)

// Block shapes. batch-direct draws its body sizes in blocks of
// batchBlock; a mixed-gateway block of mixBlock requests holds 50 %
// predicts, 35 % batches (half from the hot set, half fresh) and 15 %
// sweeps.
const (
	batchBlock      = 64
	mixBlock        = 80
	mixPredicts     = 40
	mixHotBatches   = 14
	mixFreshBatches = 14
	mixSweeps       = 12
)

// generate builds the request list of a workload from its seed. The same
// seed always yields byte-identical bodies.
func generate(workload string, seed int64) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case wlBatchDirect:
		out := make([]request, 0, batchListLen)
		for len(out) < batchListLen {
			for _, u := range stratified(rng, batchBlock) {
				out = append(out, batchRequest(rng, batchSize(u)))
			}
		}
		return out[:batchListLen], nil
	case wlMixedGateway:
		hot := make([]request, 0, hotBatchBodies)
		for _, u := range stratified(rng, hotBatchBodies) {
			hot = append(hot, batchRequest(rng, batchSize(u)))
		}
		hotOrder := rng.Perm(hotBatchBodies)
		out := make([]request, 0, mixedListLen)
		for len(out) < mixedListLen {
			block := make([]request, 0, mixBlock)
			for i := 0; i < mixPredicts; i++ {
				block = append(block, predictRequest(rng))
			}
			for i := 0; i < mixHotBatches; i++ {
				block = append(block, hot[hotOrder[(len(out)/mixBlock*mixHotBatches+i)%hotBatchBodies]])
			}
			for _, u := range stratified(rng, mixFreshBatches) {
				block = append(block, batchRequest(rng, batchSize(u)))
			}
			for _, u := range stratified(rng, mixSweeps) {
				block = append(block, sweepRequest(rng, 1+int(u*maxSweepNodes)))
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			out = append(out, block...)
		}
		return out[:mixedListLen], nil
	case wlAdviseDES:
		// Blocks of one request per stratum, shuffled within the block.
		// Each stratum walks its (nodes, cores) pairs in a cost-balanced
		// order, so every stretch of the list costs about the same to
		// serve and a run's figures do not hinge on how many large
		// clusters its seed happened to draw.
		orders := make([][][2]int, len(strata))
		for i, st := range strata {
			orders[i] = st.pairs(rng)
		}
		out := make([]request, 0, adviseListLen)
		seen := map[adviseBody]bool{}
		for k := 0; len(out) < adviseListLen; k++ {
			block := make([]request, 0, len(strata))
			for i, st := range strata {
				nc := orders[i][k%len(orders[i])]
				b := adviseBody{System: st.system, Program: st.program, Class: "S", Nodes: nc[0], Cores: nc[1]}
				for b.MaxSlowdownPct == 0 || seen[b] {
					b.MaxSlowdownPct = float64(1 + rng.Intn(10))
				}
				seen[b] = true
				block = append(block, adviseRequest(b))
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			out = append(out, block...)
		}
		return out[:adviseListLen], nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
}

func profile(system string) *machine.Profile {
	p, err := machine.ByName(system)
	if err != nil {
		panic(err) // systems lists catalogue names only
	}
	return p
}

func randomTuple(rng *rand.Rand) tuple {
	sys := systems[rng.Intn(len(systems))]
	p := profile(sys)
	return tuple{
		System:  sys,
		Program: programs[rng.Intn(len(programs))],
		Nodes:   1 + rng.Intn(p.MaxNodes),
		Cores:   1 + rng.Intn(p.CoresPerNode),
		FreqGHz: p.Frequencies[rng.Intn(len(p.Frequencies))] / 1e9,
	}
}

func randomClass(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return "A"
	}
	return "C"
}

// stratified returns k draws from [0,1), one from each of k equal bins,
// in random order: a block of requests built from them spans the whole
// size range evenly, so its cost varies little from seed to seed.
func stratified(rng *rand.Rand, k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = (float64(i) + rng.Float64()) / float64(k)
	}
	rng.Shuffle(k, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// batchSize maps u in [0,1) log-uniformly onto 1..maxBatchTuples.
func batchSize(u float64) int {
	return min(max(int(math.Exp(u*math.Log(maxBatchTuples+1))), 1), maxBatchTuples)
}

// batchRequest draws n tuples of mixed systems and programs.
func batchRequest(rng *rand.Rand, n int) request {
	b := &batchBody{Class: randomClass(rng), Tuples: make([]tuple, n)}
	for i := range b.Tuples {
		b.Tuples[i] = randomTuple(rng)
	}
	return request{Route: routeBatch, Body: mustMarshal(b), Batch: b, Preds: len(uniqueTuples(b.Tuples))}
}

func predictRequest(rng *rand.Rand) request {
	t := randomTuple(rng)
	b := &predictBody{System: t.System, Program: t.Program, Class: randomClass(rng),
		Nodes: t.Nodes, Cores: t.Cores, FreqGHz: t.FreqGHz}
	return request{Route: routePredict, Body: mustMarshal(b), Predict: b, Preds: 1}
}

func sweepRequest(rng *rand.Rand, maxNodes int) request {
	b := &sweepBody{
		System:   systems[rng.Intn(len(systems))],
		Program:  programs[rng.Intn(len(programs))],
		Class:    randomClass(rng),
		MaxNodes: maxNodes,
	}
	return request{Route: routeSweep, Body: mustMarshal(b), Sweep: b}
}

// stratum is one cell of the advisory design: a (system, program) and
// the lower or upper half of the physical node and core ranges. The cost
// of a DES run grows with nodes x cores, so drawing evenly from every
// cell keeps the cost mix of any stretch of requests close to the whole.
type stratum struct {
	system, program        string
	upperNodes, upperCores bool
}

var strata = func() []stratum {
	var out []stratum
	for _, sys := range systems {
		for _, prog := range programs {
			for _, un := range []bool{false, true} {
				for _, uc := range []bool{false, true} {
					out = append(out, stratum{sys, prog, un, uc})
				}
			}
		}
	}
	return out
}()

// half returns the lower or upper half of 1..n.
func half(n int, upper bool) (lo, hi int) {
	if upper {
		return n/2 + 1, n
	}
	return 1, n / 2
}

func stratumOf(system, program string, nodes, cores int) stratum {
	p := profile(system)
	return stratum{system, program, nodes > p.MaxNodes/2, cores > p.CoresPerNode/2}
}

// pairs returns the stratum's (nodes, cores) pairs in a seeded order that
// alternates between the cheaper and the dearer half (by nodes x cores,
// which a DES run's cost grows with), so any prefix spans the stratum's
// cost range evenly.
func (st stratum) pairs(rng *rand.Rand) [][2]int {
	p := profile(st.system)
	nlo, nhi := half(p.MaxNodes, st.upperNodes)
	clo, chi := half(p.CoresPerNode, st.upperCores)
	var all [][2]int
	for n := nlo; n <= nhi; n++ {
		for c := clo; c <= chi; c++ {
			all = append(all, [2]int{n, c})
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	sort.SliceStable(all, func(i, j int) bool { return all[i][0]*all[i][1] < all[j][0]*all[j][1] })
	cheap, dear := all[:len(all)/2], all[len(all)/2:]
	out := make([][2]int, 0, len(all))
	for i := range dear {
		out = append(out, dear[i])
		if i < len(cheap) {
			out = append(out, cheap[i])
		}
	}
	return out
}

func adviseRequest(b adviseBody) request {
	// One baseline run plus one governed run per policy of the suite.
	return request{Route: routeAdvise, Body: mustMarshal(&b), Advise: &b, Preds: 1 + len(dvfs.Policies())}
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return b
}

// uniqueTuples drops repeated tuples, keeping first occurrences: the
// server answers each distinct tuple of a batch once.
func uniqueTuples(ts []tuple) []tuple {
	seen := make(map[tuple]bool, len(ts))
	var out []tuple
	for _, t := range ts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
