package api

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"hybridperf/internal/machine"
	"hybridperf/internal/pareto"
	"hybridperf/internal/workload"
)

// Request validation the shards and the gateway share. Every error here
// is the caller's fault and is answered 400 with its message, so both
// sides reject the same requests with the same bytes.

// Class resolves a request's class: empty is class A.
func Class(class string) string {
	if class == "" {
		return string(workload.ClassA)
	}
	return class
}

// Engine names the one simulation engine, as /v1/systems reports it.
const Engine = "sequential"

// CheckEngine validates a request's "engine" field. The field is a no-op
// alias kept so existing clients keep working: empty, Engine and
// "goroutine" (the reference engine the simulator once also had) all run
// the one engine; any other value is rejected with the error clients
// have always received for an unknown engine.
func CheckEngine(engine string) error {
	switch engine {
	case "", Engine, "goroutine":
		return nil
	}
	return fmt.Errorf("exec: unknown engine %q (want %q or %q)", engine, "goroutine", Engine)
}

// Catalogue resolves a system and a program name to their profile and
// spec, nil for an unknown name.
type Catalogue func(system, program string) (*machine.Profile, *workload.Spec)

// Lookup is the Catalogue over the built-in machines and workloads.
func Lookup(system, program string) (*machine.Profile, *workload.Spec) {
	prof, _ := machine.ByName(system)
	spec, _ := workload.ByName(program)
	return prof, spec
}

// Tuple is one batch tuple after validation and default resolution:
// names verified, frequency resolved to Hz (freq_ghz 0 → the profile's
// f_max).
type Tuple struct {
	System, Program string
	Cfg             machine.Config
}

// Compare orders tuples by (system, program, nodes, cores, freq) — the
// canonical order a /v1/batch answer lists its results in.
func (t Tuple) Compare(u Tuple) int {
	if c := strings.Compare(t.System, u.System); c != 0 {
		return c
	}
	if c := strings.Compare(t.Program, u.Program); c != 0 {
		return c
	}
	if c := cmp.Compare(t.Cfg.Nodes, u.Cfg.Nodes); c != 0 {
		return c
	}
	if c := cmp.Compare(t.Cfg.Cores, u.Cfg.Cores); c != 0 {
		return c
	}
	return cmp.Compare(t.Cfg.Freq, u.Cfg.Freq)
}

// Canonicalize sorts tuples into canonical order and drops duplicates,
// in place. /v1/batch responds in exactly this order, which is what
// makes byte-level response caching sound for bodies that list the same
// tuples shuffled or repeated, and a gateway merge byte-identical to one
// shard's answer.
func Canonicalize(tuples []Tuple) []Tuple {
	slices.SortFunc(tuples, Tuple.Compare)
	out := tuples[:0]
	for i, t := range tuples {
		if i > 0 && t == tuples[i-1] {
			continue
		}
		out = append(out, t)
	}
	return out
}

// Group is one (system, program) group of a batch request, resolved
// during validation: its profile and the class's iteration count.
type Group struct {
	System, Program string
	Prof            *machine.Profile
	Iters           int
}

// FindGroup returns the group of (system, program), or nil. A batch
// spans at most the catalogue's dozen pairs, so a scan beats a map.
func FindGroup(groups []Group, system, program string) *Group {
	for i := range groups {
		if groups[i].System == system && groups[i].Program == program {
			return &groups[i]
		}
	}
	return nil
}

// CanonBatch validates a decoded /v1/batch request and returns its
// (system, program) groups and its canonical tuple list, appended to the
// given slices. The tuple count is checked first, then every tuple in
// request order, so an error names the first offending index; each
// group resolves its profile and iteration count once, so a bad class
// fails before any evaluation.
func CanonBatch(req *BatchRequest, cat Catalogue, groups []Group, canon []Tuple) ([]Group, []Tuple, error) {
	if len(req.Tuples) == 0 {
		return groups, canon, fmt.Errorf("batch carries no tuples")
	}
	if len(req.Tuples) > MaxBatchTuples {
		return groups, canon, fmt.Errorf("batch carries %d tuples, limit %d", len(req.Tuples), MaxBatchTuples)
	}
	class := workload.Class(Class(req.Class))
	for i, t := range req.Tuples {
		g := FindGroup(groups, t.System, t.Program)
		if g == nil {
			prof, spec := cat(t.System, t.Program)
			if prof == nil {
				return groups, canon, fmt.Errorf("tuple %d: unknown system %q", i, t.System)
			}
			if spec == nil {
				return groups, canon, fmt.Errorf("tuple %d: unknown program %q", i, t.Program)
			}
			iters, err := spec.Iterations(class)
			if err != nil {
				return groups, canon, fmt.Errorf("bad class %q: %v", class, err)
			}
			groups = append(groups, Group{System: t.System, Program: t.Program, Prof: prof, Iters: iters})
			g = &groups[len(groups)-1]
		}
		cfg := machine.Config{Nodes: t.Nodes, Cores: t.Cores, Freq: t.FreqGHz * 1e9}
		if t.FreqGHz == 0 {
			cfg.Freq = g.Prof.FMax()
		}
		if err := g.Prof.ValidateModelConfig(cfg); err != nil {
			return groups, canon, fmt.Errorf("tuple %d: invalid configuration: %v", i, err)
		}
		canon = append(canon, Tuple{System: t.System, Program: t.Program, Cfg: cfg})
	}
	return groups, Canonicalize(canon), nil
}

// Model is a request's validated (system, program, class) coordinates:
// the profile, the program, the class with its default resolved, and
// that class's iteration count.
type Model struct {
	Prof  *machine.Profile
	Spec  *workload.Spec
	Class string
	Iters int
}

// ResolveModel validates the model coordinates the point and sweep
// routes share.
func ResolveModel(system, program, class string) (Model, error) {
	prof, err := machine.ByName(system)
	if err != nil {
		return Model{}, fmt.Errorf("unknown system %q", system)
	}
	spec, err := workload.ByName(program)
	if err != nil {
		return Model{}, fmt.Errorf("unknown program %q", program)
	}
	m := Model{Prof: prof, Spec: spec, Class: Class(class)}
	if m.Iters, err = spec.Iterations(workload.Class(m.Class)); err != nil {
		return Model{}, fmt.Errorf("bad class %q: %v", m.Class, err)
	}
	return m, nil
}

// Sweep is a validated /v1/sweep request with its defaults resolved.
type Sweep struct {
	Model
	MaxNodes int // max_nodes 0 resolved to the testbed size
}

// ResolveSweep validates a decoded /v1/sweep request's coordinates and
// resolves its defaults.
func ResolveSweep(req *SweepRequest) (Sweep, error) {
	m, err := ResolveModel(req.System, req.Program, req.Class)
	if err != nil {
		return Sweep{}, err
	}
	sw := Sweep{Model: m, MaxNodes: req.MaxNodes}
	if sw.MaxNodes == 0 {
		sw.MaxNodes = m.Prof.MaxNodes
	}
	if sw.MaxNodes < 1 || sw.MaxNodes > MaxSweepNodes {
		return Sweep{}, fmt.Errorf("max_nodes %d out of range [1,%d]", req.MaxNodes, MaxSweepNodes)
	}
	return sw, nil
}

// Space enumerates the sweep's configuration space in pareto.Space
// order, which is the order a sweep evaluates and renders in.
func (sw Sweep) Space(pow2 bool) []machine.Config {
	var nodes []int
	if pow2 {
		nodes = pareto.PowersOfTwo(sw.MaxNodes)
	} else {
		nodes = pareto.Range(1, sw.MaxNodes)
	}
	return pareto.Space(nodes, sw.Prof.CoresPerNode, sw.Prof.Frequencies)
}
