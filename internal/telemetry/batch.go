package telemetry

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"hybridperf/internal/api"
	"hybridperf/internal/machine"
	"hybridperf/internal/pareto"
)

// batchScratch is one batch request's working memory: the decoded
// tuples, their canonical form, the resolved (system, program) groups,
// the evaluation's configurations and points, and the buffer the answer
// is rendered into before it is copied out at its exact size. It is
// recycled across requests, so a steady stream of batches allocates none
// of it; nothing in it outlives the request.
type batchScratch struct {
	tuples []api.BatchTuple
	canon  []api.Tuple
	groups []api.Group
	cfgs   []machine.Config
	pts    []pareto.Point
	doc    []byte
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

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
	body, ok := api.ReadBody(w, r, api.MaxBatchBodyBytes)
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
				annotate(r.Context(),
					slog.String("class", m.class),
					slog.Int("tuples", m.tuples),
					slog.Int("unique", m.unique))
				if rt != nil {
					rt.AddSpan("handler", "cache-lookup", tDecode, time.Now())
				}
				s.writeCached(w, r, "/v1/batch", resp, cacheHit)
				return
			}
		}
	}

	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	req := api.BatchRequest{Tuples: sc.tuples}
	err := api.DecodeBatch(body, &req)
	if cap(req.Tuples) > cap(sc.tuples) && len(req.Tuples) <= api.MaxBatchTuples {
		sc.tuples = req.Tuples[:0] // keep the growth of a batch that may be served
	}
	if err != nil {
		api.BadBody(w, err)
		return
	}
	if rt != nil {
		rt.AddSpan("handler", "decode", tDecode, time.Now())
	}
	if !checkEngine(w, req.Engine) {
		return
	}
	class := api.Class(req.Class)
	groups, canon, err := api.CanonBatch(&req, s.catalogue, sc.groups[:0], sc.canon[:0])
	sc.groups, sc.canon = groups, canon[:0] // keep the growth
	if err != nil {
		api.Error(w, http.StatusBadRequest, "%v", err)
		return
	}

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
		slog.Int("tuples", len(req.Tuples)),
		slog.Int("unique", len(canon)))

	key := batchCacheKey(class, canon)
	if s.batchMemo != nil {
		s.batchMemo.put(body, memoEntry{
			key:    key,
			class:  class,
			tuples: len(req.Tuples),
			unique: len(canon),
		})
	}
	s.respondCached(w, r, "/v1/batch", key, func() (*cachedResponse, error) {
		release, ok := s.acquire()
		if !ok {
			return nil, fmt.Errorf("batch: %w", errSaturated)
		}
		defer release()
		t0 := time.Now()
		ngroups, err := s.evaluateBatch(r, sc, canon, workers)
		if err != nil {
			return nil, err
		}
		tEval := time.Now()
		if rt != nil {
			rt.AddSpan("model", fmt.Sprintf("evaluate batch (%d tuples, %d groups)", len(canon), ngroups), t0, tEval)
		}
		endRender := rt.Span("handler", "render")
		defer endRender()
		return buildBatchResponse(sc, class, ngroups, canon)
	})
}

// evaluateBatch runs the canonical tuple list through the model layer
// into sc.pts: one model resolution per (system, program) group, one
// vectorised EvaluateParallelInto per group over a contiguous sub-slice
// of sc.cfgs. It returns the number of groups. The caller already holds
// an admission slot, so cold characterisations triggered here don't
// claim a second one.
func (s *Server) evaluateBatch(r *http.Request, sc *batchScratch, canon []api.Tuple, workers int) (int, error) {
	cfgs := sc.cfgs[:0]
	for _, t := range canon {
		cfgs = append(cfgs, t.Cfg)
	}
	sc.cfgs = cfgs
	if cap(sc.pts) < len(canon) {
		sc.pts = make([]pareto.Point, len(canon))
	}
	pts := sc.pts[:len(canon)]

	n := 0
	for lo := 0; lo < len(canon); {
		hi := lo + 1
		for hi < len(canon) && canon[hi].System == canon[lo].System && canon[hi].Program == canon[lo].Program {
			hi++
		}
		n++
		key := modelKey{system: canon[lo].System, program: canon[lo].Program}
		e, err := s.model(r.Context(), key, true)
		if err != nil {
			return 0, err
		}
		if err := pareto.EvaluateParallelInto(r.Context(), e.model, cfgs[lo:hi],
			api.FindGroup(sc.groups, key.system, key.program).Iters, workers, pts[lo:hi]); err != nil {
			return 0, fmt.Errorf("batch %s/%s: %w", key.system, key.program, err)
		}
		lo = hi
	}
	return n, nil
}

// buildBatchResponse renders a batch answer — the summary, then one
// result per canonical tuple — straight from the evaluated points into
// one document buffer.
func buildBatchResponse(sc *batchScratch, class string, groups int, canon []api.Tuple) (*cachedResponse, error) {
	bad := -1
	doc, cost := api.RenderBatch(sc.doc[:0], class, groups, len(canon), func(i int) api.BatchResult {
		pj := api.ToPrediction(sc.pts[i].Pred)
		if bad < 0 && !pj.Finite() {
			bad = i
		}
		return api.BatchResult{System: canon[i].System, Program: canon[i].Program, Prediction: pj}
	})
	if cap(doc.Body) <= maxCacheEntryBytes {
		sc.doc = doc.Body[:0] // keep the growth for the next answer
	}
	if bad >= 0 {
		t := canon[bad]
		return nil, fmt.Errorf("batch %s/%s %v: non-finite prediction", t.System, t.Program, t.Cfg)
	}
	doc.Body = bytes.Clone(doc.Body) // exactly sized: the cache may hold it for minutes
	return &cachedResponse{Doc: doc, attr: makeAttribution(cost)}, nil
}
