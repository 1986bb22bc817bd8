// Package netpipe reproduces the paper's network characterisation
// (Sec. III.E.2, Figure 3): a NetPIPE-style ping-pong between two nodes
// sweeping message sizes, yielding the latency and throughput curve and a
// fitted service-time model y(s) = Overhead + s/Peak for the analytical
// model. On a 100 Mbps link the measured peak lands near 90 Mbps — the
// MPI/OS overhead the paper observes.
package netpipe

import (
	"fmt"
	"math"

	"hybridperf/internal/core"
	"hybridperf/internal/des"
	"hybridperf/internal/machine"
	"hybridperf/internal/mpi"
	"hybridperf/internal/node"
	"hybridperf/internal/simnet"
)

// Point is one measured message size.
type Point struct {
	Bytes      float64 // message size [B]
	Latency    float64 // one-way latency [s]
	Throughput float64 // achieved throughput [B/s]
}

// Mbps returns the point's throughput in megabits per second, the unit of
// Figure 3.
func (p Point) Mbps() float64 { return p.Throughput * 8 / 1e6 }

// DefaultSizes returns the sweep of Figure 3: powers of two from 1 B to
// 16 MB.
func DefaultSizes() []float64 {
	var sizes []float64
	for s := 1.0; s <= 16<<20; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}

// Measure runs the ping-pong over the given sizes with `reps` round trips
// per size and returns one point per size.
func Measure(prof *machine.Profile, sizes []float64, reps int) ([]Point, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if prof.MaxNodes < 2 {
		return nil, fmt.Errorf("netpipe: need at least 2 nodes, profile %s has %d", prof.Name, prof.MaxNodes)
	}
	if reps < 1 {
		reps = 1
	}

	k := des.NewKernel()
	sw := simnet.New(k, prof, 2)
	nodes := []*node.Node{
		node.New(k, prof, 0, 1, prof.FMax(), nil),
		node.New(k, prof, 1, 1, prof.FMax(), nil),
	}
	world := mpi.NewWorld(k, sw, nodes)
	k.Spawn("echo", &echo{r: world.Rank(1), sizes: sizes, reps: reps})
	pp := &pingPong{r: world.Rank(0), sizes: sizes, reps: reps, points: make([]Point, 0, len(sizes))}
	k.Spawn("pingpong", pp)
	if err := k.Run(math.Inf(1)); err != nil {
		return nil, fmt.Errorf("netpipe: %w", err)
	}
	return pp.points, nil
}

// echo is rank 1 of the ping-pong: it returns every message it receives,
// stopping after the known total (len(sizes) x reps messages).
type echo struct {
	r       *mpi.Rank
	sizes   []float64
	reps    int
	sent    int
	wc      mpi.WaitCountOp
	waiting bool
}

func (m *echo) Step(p *des.Proc) bool {
	for m.sent < len(m.sizes)*m.reps {
		if !m.waiting {
			m.wc = mpi.WaitCountOp{Tag: mpi.TagHalo, Target: m.sent + 1}
			m.waiting = true
		}
		if !m.r.WaitCountStep(&m.wc, p) {
			return false
		}
		m.waiting = false
		m.r.Isend(0, m.sizes[m.sent/m.reps], mpi.TagHalo)
		m.sent++
	}
	return true
}

// pingPong is rank 0 of the ping-pong: reps round trips per size, timing
// each size's mean round trip into one point.
type pingPong struct {
	r       *mpi.Rank
	sizes   []float64
	reps    int
	got     int
	start   float64
	wc      mpi.WaitCountOp
	waiting bool
	points  []Point
}

func (m *pingPong) Step(p *des.Proc) bool {
	for m.got < len(m.sizes)*m.reps {
		size := m.sizes[m.got/m.reps]
		if !m.waiting {
			if m.got%m.reps == 0 {
				m.start = p.Now()
			}
			m.r.Isend(1, size, mpi.TagHalo)
			m.wc = mpi.WaitCountOp{Tag: mpi.TagHalo, Target: m.got + 1}
			m.waiting = true
		}
		if !m.r.WaitCountStep(&m.wc, p) {
			return false
		}
		m.waiting = false
		m.got++
		if m.got%m.reps == 0 {
			rtt := (p.Now() - m.start) / float64(m.reps)
			lat := rtt / 2
			m.points = append(m.points, Point{Bytes: size, Latency: lat, Throughput: size / lat})
		}
	}
	return true
}

// Fit performs the least-squares fit of latency against message size,
// recovering the affine service model the analytical model consumes:
// latency(s) = Overhead + s/Peak.
func Fit(points []Point) (core.NetModel, error) {
	if len(points) < 2 {
		return core.NetModel{}, fmt.Errorf("netpipe: need >= 2 points to fit, got %d", len(points))
	}
	var n, sx, sy, sxx, sxy float64
	for _, p := range points {
		n++
		sx += p.Bytes
		sy += p.Latency
		sxx += p.Bytes * p.Bytes
		sxy += p.Bytes * p.Latency
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return core.NetModel{}, fmt.Errorf("netpipe: degenerate size sweep")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	if slope <= 0 {
		return core.NetModel{}, fmt.Errorf("netpipe: non-positive bandwidth fit (slope %g)", slope)
	}
	if intercept < 0 {
		intercept = 0
	}
	return core.NetModel{Overhead: intercept, Peak: 1 / slope}, nil
}

// Characterize measures with the default sweep and fits the service model.
func Characterize(prof *machine.Profile) ([]Point, core.NetModel, error) {
	points, err := Measure(prof, DefaultSizes(), 3)
	if err != nil {
		return nil, core.NetModel{}, err
	}
	nm, err := Fit(points)
	if err != nil {
		return nil, core.NetModel{}, err
	}
	return points, nm, nil
}
