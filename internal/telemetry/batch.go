package telemetry

import (
	"bytes"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"hybridperf/internal/machine"
	"hybridperf/internal/pareto"
	"hybridperf/internal/workload"
)

// maxBatchTuples bounds one /v1/batch request; the body size cap
// (maxBatchBodyBytes) limits the wire form, this limits the work.
const maxBatchTuples = 65536

// maxBatchBodyBytes is the /v1/batch body cap — larger than the 1 MiB
// default because a full dense grid is tens of thousands of tuples.
const maxBatchBodyBytes = 8 << 20

// batchScratch is one batch request's working memory: the decoded
// tuples, their canonical form, the resolved (system, program) groups,
// the evaluation's configurations and points, and the buffer the answer
// is rendered into before it is copied out at its exact size. It is
// recycled across requests, so a steady stream of batches allocates none
// of it; nothing in it outlives the request.
type batchScratch struct {
	tuples []batchTuple
	canon  []canonTuple
	groups []batchGroup
	cfgs   []machine.Config
	pts    []pareto.Point
	doc    []byte
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// batchTuple is one (system, program, n, c, f) coordinate of a /v1/batch
// request. freq_ghz 0 resolves to the system's f_max, exactly as
// /v1/predict defaults it.
type batchTuple struct {
	System  string  `json:"system"`
	Program string  `json:"program"`
	Nodes   int     `json:"nodes"`
	Cores   int     `json:"cores"`
	FreqGHz float64 `json:"freq_ghz"`
}

// batchRequest is the /v1/batch body: many tuples, one class, vectorised
// through the sweep engine. Workers and engine tune how the answer is
// computed, never what it is, so they are excluded from the response
// cache key.
type batchRequest struct {
	Class   string       `json:"class"`
	Engine  string       `json:"engine"`  // "" = server default
	Workers int          `json:"workers"` // 0 = server default
	Tuples  []batchTuple `json:"tuples"`
}

// handleBatch serves POST /v1/batch: validate and canonicalise the tuple
// list (sorted, deduplicated — the response lists results in exactly that
// canonical order), then evaluate it vectorised: tuples grouped by
// (system, program) so each group resolves its model once and runs
// through pareto.EvaluateParallelInto as one contiguous sub-slice of a
// pooled configuration buffer. The whole request holds one admission slot
// (claimed by the cache-flight leader), and identical concurrent requests
// collapse to a single evaluation.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	rt := RequestTraceFrom(r.Context())
	var tDecode time.Time
	if rt != nil {
		tDecode = time.Now()
	}
	body, ok := readBodyMax(w, r, maxBatchBodyBytes)
	if !ok {
		return
	}

	// Fast path: an exact-byte repeat of a previously validated body maps
	// straight to its canonical cache key, skipping JSON decode,
	// validation and canonicalisation — the dominant costs of serving a
	// cache hit. Only an already-stored answer is served here; a first
	// sighting, an expired entry or an evicted one falls through to the
	// full path below.
	if s.batchMemo != nil {
		if m, ok := s.batchMemo.get(body); ok {
			if resp, hit := s.respCache.peek(m.key); hit {
				s.mByEngine.With("/v1/batch", m.engine).Inc()
				annotate(r.Context(),
					slog.String("class", m.class),
					slog.String("engine", m.engine),
					slog.Int("tuples", m.tuples),
					slog.Int("unique", m.unique))
				if rt != nil {
					rt.AddSpan("handler", "cache-lookup", tDecode, time.Now())
				}
				s.writeCached(w, r, "/v1/batch", m.engine, resp, cacheHit)
				return
			}
		}
	}

	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	req := batchRequest{Tuples: sc.tuples}
	err := decodeBatchRequest(body, &req)
	if cap(req.Tuples) > cap(sc.tuples) && len(req.Tuples) <= maxBatchTuples {
		sc.tuples = req.Tuples[:0] // keep the growth of a batch that may be served
	}
	if err != nil {
		badBody(w, err)
		return
	}
	if rt != nil {
		rt.AddSpan("handler", "decode", tDecode, time.Now())
	}
	engine, ok := s.engineMode(w, req.Engine)
	if !ok {
		return
	}
	s.mByEngine.With("/v1/batch", engine).Inc()
	if len(req.Tuples) == 0 {
		httpError(w, http.StatusBadRequest, "batch carries no tuples")
		return
	}
	if len(req.Tuples) > maxBatchTuples {
		httpError(w, http.StatusBadRequest, "batch carries %d tuples, limit %d", len(req.Tuples), maxBatchTuples)
		return
	}
	class := req.Class
	if class == "" {
		class = string(workload.ClassA)
	}

	// Validate every tuple in request order (errors name the offending
	// index), resolving names and the freq_ghz=0 default. Each (system,
	// program) group resolves its profile and iteration count once, so a
	// bad class fails before any evaluation.
	sc.groups = sc.groups[:0]
	canon := sc.canon[:0]
	for i, t := range req.Tuples {
		key := modelKey{system: t.System, program: t.Program}
		g := findGroup(sc.groups, key)
		if g == nil {
			prof, spec := s.catalogue(key)
			if prof == nil {
				httpError(w, http.StatusBadRequest, "tuple %d: unknown system %q", i, t.System)
				return
			}
			if spec == nil {
				httpError(w, http.StatusBadRequest, "tuple %d: unknown program %q", i, t.Program)
				return
			}
			S, err := spec.Iterations(workload.Class(class))
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad class %q: %v", class, err)
				return
			}
			sc.groups = append(sc.groups, batchGroup{key: key, prof: prof, iters: S})
			g = &sc.groups[len(sc.groups)-1]
		}
		cfg := machine.Config{Nodes: t.Nodes, Cores: t.Cores, Freq: t.FreqGHz * 1e9}
		if t.FreqGHz == 0 {
			cfg.Freq = g.prof.FMax()
		}
		if err := g.prof.ValidateModelConfig(cfg); err != nil {
			httpError(w, http.StatusBadRequest, "tuple %d: invalid configuration: %v", i, err)
			return
		}
		canon = append(canon, canonTuple{system: t.System, program: t.Program, cfg: cfg})
	}
	sc.canon = canon[:0] // keep the growth
	canon = canonicalizeTuples(canon)

	// A batch whose every tuple is owned by one remote replica forwards
	// whole (before the memo stores this body, so forwarded bodies never
	// enter the local fast path); mixed-ownership batches are served
	// locally — splitting them across owners is the gateway's job.
	if owner, ok := s.batchRemoteOwner(r, canon); ok && s.forward(w, r, body, owner) {
		return
	}

	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	if workers > 4*runtime.GOMAXPROCS(0) {
		workers = 4 * runtime.GOMAXPROCS(0)
	}
	annotate(r.Context(),
		slog.String("class", class),
		slog.String("engine", engine),
		slog.Int("tuples", len(req.Tuples)),
		slog.Int("unique", len(canon)))

	key := batchCacheKey(class, canon)
	if s.batchMemo != nil {
		s.batchMemo.put(body, memoEntry{
			key:    key,
			engine: engine,
			class:  class,
			tuples: len(req.Tuples),
			unique: len(canon),
		})
	}
	s.respondCached(w, r, "/v1/batch", engine, key, func() (*cachedResponse, error) {
		release, ok := s.acquire()
		if !ok {
			return nil, fmt.Errorf("batch: %w", errSaturated)
		}
		defer release()
		t0 := time.Now()
		ngroups, err := s.evaluateBatch(r, sc, canon, engine, workers)
		if err != nil {
			return nil, err
		}
		tEval := time.Now()
		s.spans.Observe("model", fmt.Sprintf("batch %d tuples (%d groups)", len(canon), ngroups),
			t0, tEval, map[string]any{"id": requestID(r.Context())})
		if rt != nil {
			rt.AddSpan("model", fmt.Sprintf("evaluate batch (%d tuples, %d groups)", len(canon), ngroups), t0, tEval)
		}
		endRender := rt.Span("handler", "render")
		defer endRender()
		return buildBatchResponse(sc, class, ngroups, canon)
	})
}

// batchGroup is one (system, program) group of a batch request, resolved
// during validation: its profile and the class's iteration count.
type batchGroup struct {
	key   modelKey
	prof  *machine.Profile
	iters int
}

// findGroup returns the group for key, or nil. A batch spans at most the
// catalogue's dozen (system, program) pairs, so a scan beats a map.
func findGroup(groups []batchGroup, key modelKey) *batchGroup {
	for i := range groups {
		if groups[i].key == key {
			return &groups[i]
		}
	}
	return nil
}

// evaluateBatch runs the canonical tuple list through the model layer
// into sc.pts: one model resolution per (system, program) group, one
// vectorised EvaluateParallelInto per group over a contiguous sub-slice
// of sc.cfgs. It returns the number of groups. The caller already holds
// an admission slot, so cold characterisations triggered here don't
// claim a second one.
func (s *Server) evaluateBatch(r *http.Request, sc *batchScratch, canon []canonTuple, engine string, workers int) (int, error) {
	cfgs := sc.cfgs[:0]
	for _, t := range canon {
		cfgs = append(cfgs, t.cfg)
	}
	sc.cfgs = cfgs
	if cap(sc.pts) < len(canon) {
		sc.pts = make([]pareto.Point, len(canon))
	}
	pts := sc.pts[:len(canon)]

	n := 0
	for lo := 0; lo < len(canon); {
		hi := lo + 1
		for hi < len(canon) && canon[hi].system == canon[lo].system && canon[hi].program == canon[lo].program {
			hi++
		}
		n++
		key := modelKey{system: canon[lo].system, program: canon[lo].program}
		e, err := s.model(r.Context(), key, engine, true)
		if err != nil {
			return 0, err
		}
		if err := pareto.EvaluateParallelInto(r.Context(), e.model, cfgs[lo:hi],
			findGroup(sc.groups, key).iters, workers, pts[lo:hi]); err != nil {
			return 0, fmt.Errorf("batch %s/%s: %w", key.system, key.program, err)
		}
		lo = hi
	}
	return n, nil
}

// buildBatchResponse renders a batch answer — the summary, then one
// result per canonical tuple — straight from the evaluated points into
// one document buffer. Each result is byte-identical to
// json.Marshal(batchResultJSON); FuzzAppendBatchResult pins that.
func buildBatchResponse(sc *batchScratch, class string, groups int, canon []canonTuple) (*cachedResponse, error) {
	b := append(sc.doc[:0], `{"class":"`...)
	b = append(b, class...)
	b = append(b, `","count":`...)
	b = strconv.AppendInt(b, int64(len(canon)), 10)
	b = append(b, `,"groups":`...)
	b = strconv.AppendInt(b, int64(groups), 10)
	var simS, energyJ float64
	bad := -1
	resp := spliceItems(b, "results", "result", len(canon), func(b []byte, i int) []byte {
		pj := toPredictionJSON(sc.pts[i].Pred)
		if bad < 0 && !finitePrediction(pj) {
			bad = i
		}
		// Attribution sums the results in canonical order, so a client
		// summing the body it received reproduces the header values
		// float-exactly.
		simS += pj.TimeS
		energyJ += pj.EnergyJ
		return appendBatchResult(b, canon[i].system, canon[i].program, pj)
	})
	if cap(resp.body) <= maxCacheEntryBytes {
		sc.doc = resp.body[:0] // keep the growth for the next answer
	}
	if bad >= 0 {
		t := canon[bad]
		return nil, fmt.Errorf("batch %s/%s %v: non-finite prediction", t.system, t.program, t.cfg)
	}
	resp.body = bytes.Clone(resp.body) // exactly sized: the cache may hold it for minutes
	resp.attr = makeAttribution(len(canon), simS, energyJ)
	return resp, nil
}

// finitePrediction reports whether every float of p can be rendered as
// JSON.
func finitePrediction(p predictionJSON) bool {
	for _, f := range [...]float64{p.Config.FreqGHz, p.TimeS, p.EnergyJ, p.PowerW, p.UCR} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// appendBatchResult appends one batch result exactly as
// json.Marshal(batchResultJSON{system, program, p}) renders it. The names
// are written unescaped: they are validated catalogue names, none of
// which needs escaping (TestCatalogueNamesNeedNoEscaping).
func appendBatchResult(b []byte, system, program string, p predictionJSON) []byte {
	b = append(b, `{"system":"`...)
	b = append(b, system...)
	b = append(b, `","program":"`...)
	b = append(b, program...)
	b = append(b, `","config":{"nodes":`...)
	b = strconv.AppendInt(b, int64(p.Config.Nodes), 10)
	b = append(b, `,"cores":`...)
	b = strconv.AppendInt(b, int64(p.Config.Cores), 10)
	b = append(b, `,"freq_ghz":`...)
	b = appendFloat(b, p.Config.FreqGHz)
	b = append(b, `},"time_s":`...)
	b = appendFloat(b, p.TimeS)
	b = append(b, `,"energy_j":`...)
	b = appendFloat(b, p.EnergyJ)
	b = append(b, `,"power_w":`...)
	b = appendFloat(b, p.PowerW)
	b = append(b, `,"ucr":`...)
	b = appendFloat(b, p.UCR)
	return append(b, '}')
}

// marshalEach renders one JSON fragment per element.
func marshalEach[T any](items []T) [][]byte {
	frags := make([][]byte, len(items))
	for i := range items {
		frags[i] = mustJSON(items[i])
	}
	return frags
}

// spliceResponse assembles an answer document from a marshalled summary
// object and per-item fragments: the summary with an appended
// `"<listKey>":[...]` array of the fragments.
func spliceResponse(sum []byte, listKey, itemKey string, frags [][]byte) *cachedResponse {
	n := len(sum) + len(listKey) + 8
	for _, f := range frags {
		n += len(f) + 1
	}
	b := make([]byte, 0, n)
	b = append(b, sum[:len(sum)-1]...) // summary object sans closing brace
	return spliceItems(b, listKey, itemKey, len(frags), func(b []byte, i int) []byte {
		return append(b, frags[i]...)
	})
}

// spliceItems completes a document whose summary object — without its
// closing brace — is already in b: it appends `,"<listKey>":[` and n
// items rendered by item, closes the document, and records the offsets
// the NDJSON form is derived from (see cachedResponse).
func spliceItems(b []byte, listKey, itemKey string, n int, item func(b []byte, i int) []byte) *cachedResponse {
	resp := &cachedResponse{item: itemKey, sumEnd: len(b), starts: make([]int32, n+1)}
	b = append(b, `,"`...)
	b = append(b, listKey...)
	b = append(b, `":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		resp.starts[i] = int32(len(b))
		b = item(b, i)
	}
	resp.starts[n] = int32(len(b) + 1) // one past the closing bracket
	resp.body = append(b, ']', '}', '\n')
	return resp
}
