package telemetry

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"time"

	"hybridperf/internal/api"
)

// cachedDo runs compute through the response cache when one is
// configured — cache hit, singleflight collapse, or leader compute — and
// directly otherwise.
func (s *Server) cachedDo(ctx context.Context, key string, compute func() (*cachedResponse, error)) (*cachedResponse, cacheStatus, error) {
	if s.respCache == nil {
		resp, err := compute()
		return resp, cacheBypass, err
	}
	return s.respCache.do(ctx, key, compute)
}

// writeCached serves a computed or cached response in the shape the
// client asked for (api.Doc.Write). The cache status is surfaced as
// X-Response-Cache and annotated onto the access-log line, and the
// response's stored cost attribution is stamped on — identically whether
// the body was just computed or replayed from the cache.
func (s *Server) writeCached(w http.ResponseWriter, r *http.Request, route string, resp *cachedResponse, status cacheStatus) {
	annotate(r.Context(), slog.String("cache", string(status)))
	w.Header().Set("X-Response-Cache", string(status))
	s.applyAttribution(w, r, route, resp.attr)
	resp.Write(w, r)
}

// respondCached is the shared tail of the cacheable handlers (/v1/sweep,
// /v1/batch): run compute through the cache, map compute errors to the
// same statuses the uncached paths used (429 shed, 503 interrupted, 500
// otherwise), and serve the answer in the requested shape.
func (s *Server) respondCached(w http.ResponseWriter, r *http.Request, route, key string, compute func() (*cachedResponse, error)) {
	lookup := time.Now()
	resp, status, err := s.cachedDo(r.Context(), key, compute)
	if err != nil {
		annotate(r.Context(), slog.String("cache", string(status)))
		if errors.Is(err, errSaturated) {
			s.reject(w, route)
			return
		}
		if interrupted(w, err) {
			return
		}
		api.Error(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// A hit (or a collapse onto someone else's compute) is pure cache
	// time from this request's point of view; on a miss the compute
	// closure records its own characterize/evaluate/render children over
	// the same interval instead.
	if status == cacheHit || status == cacheCollapsed {
		if rt := RequestTraceFrom(r.Context()); rt != nil {
			rt.AddSpan("handler", "cache-lookup", lookup, time.Now())
		}
	}
	s.writeCached(w, r, route, resp, status)
}
