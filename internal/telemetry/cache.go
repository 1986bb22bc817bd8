package telemetry

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"

	"hybridperf/internal/api"
)

// errFlightAborted marks a singleflight computation whose leader panicked
// before producing a result; waiters report it as retryable (503).
var errFlightAborted = errors.New("collapsed request aborted before completing; retry")

// maxCacheEntryBytes bounds one cached response body: a pathological
// batch answer (megabytes of results) is still computed and served — and
// still collapses concurrent identical requests — but is not retained, so
// a handful of giant sweeps cannot squeeze every ordinary entry out of a
// size-bounded cache.
const maxCacheEntryBytes = 4 << 20

// cachedResponse is one fully rendered answer (document plus the
// offsets its NDJSON form is derived from, see api.Doc) with its cost
// attribution, computed (and its header strings formatted) once at build
// time so cache hits replay it without touching the body.
type cachedResponse struct {
	api.Doc
	attr attribution
}

// cacheCounters are the exported hybridperf_response_cache_* series the
// cache maintains. Evictions and expiries are separate series: an
// eviction means the cache is too small for the working set (capacity
// pressure, actionable by resizing), an expiry means an entry aged past
// its TTL (normal decay, actionable only by retuning the TTL). Folding
// both into one counter made LRU pressure invisible on a TTL-heavy
// workload.
type cacheCounters struct {
	hits, misses, evictions, expired, collapsed *Counter
	entries                                     *Gauge
}

// responseCache is an LRU + TTL response cache with singleflight
// collapse: concurrent requests for one canonical key compute the answer
// once — the first becomes the leader, the rest wait on its flight — and
// later requests are served from the stored entry until it ages out or is
// evicted. Errors are never cached: a failed flight is forgotten so the
// next request retries.
type responseCache struct {
	capacity int
	ttl      time.Duration // 0 = entries never expire
	ctr      cacheCounters
	now      func() time.Time // test seam

	mu      sync.Mutex
	entries map[string]*list.Element // key -> element holding *cacheEntry
	lru     *list.List               // front = most recently used
	flights map[string]*flight
}

type cacheEntry struct {
	key     string
	resp    *cachedResponse
	expires time.Time // zero = never
}

// flight is one in-progress computation; done closes once val/err are
// set.
type flight struct {
	done chan struct{}
	resp *cachedResponse
	err  error
}

func newResponseCache(capacity int, ttl time.Duration, ctr cacheCounters) *responseCache {
	return &responseCache{
		capacity: capacity,
		ttl:      ttl,
		ctr:      ctr,
		now:      time.Now,
		entries:  map[string]*list.Element{},
		lru:      list.New(),
		flights:  map[string]*flight{},
	}
}

// cacheStatus reports how a request was satisfied, surfaced as the
// X-Response-Cache header and the access-log "cache" attribute.
type cacheStatus string

const (
	cacheHit       cacheStatus = "hit"       // served from a stored entry
	cacheMiss      cacheStatus = "miss"      // this request computed (and stored) the answer
	cacheCollapsed cacheStatus = "collapsed" // waited on an identical in-flight computation
	cacheBypass    cacheStatus = "bypass"    // cache disabled
)

// lookup returns the fresh entry for key, promoting it, or nil. The
// caller holds c.mu. An expired entry is removed and counted on the
// expired series — not as an eviction, which is reserved for capacity
// pressure.
func (c *responseCache) lookup(key string) *cachedResponse {
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	e := el.Value.(*cacheEntry)
	if !e.expires.IsZero() && c.now().After(e.expires) {
		c.dropLocked(el)
		c.ctr.expired.Inc()
		return nil
	}
	c.lru.MoveToFront(el)
	return e.resp
}

// dropLocked unlinks one entry without attributing a cause; callers
// count the drop on the series matching why (evictions or expired).
func (c *responseCache) dropLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.ctr.entries.Dec()
}

func (c *responseCache) removeLocked(el *list.Element) {
	c.dropLocked(el)
	c.ctr.evictions.Inc()
}

// store inserts a computed response, evicting from the LRU tail to stay
// within capacity. Oversized responses are not retained.
func (c *responseCache) store(key string, resp *cachedResponse) {
	if resp.Size() > maxCacheEntryBytes {
		return
	}
	e := &cacheEntry{key: key, resp: resp}
	if c.ttl > 0 {
		e.expires = c.now().Add(c.ttl)
	}
	if el, ok := c.entries[key]; ok {
		// A racing non-collapsed recompute (entry expired between two
		// flights) refreshed the same key: replace in place.
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(e)
	c.ctr.entries.Inc()
	for c.lru.Len() > c.capacity {
		c.removeLocked(c.lru.Back())
	}
}

// peek returns the stored response for key without joining or creating
// a flight — the body-memo fast path uses it to serve exact repeats; a
// miss here is not counted (the caller falls through to do, which counts
// the authoritative miss).
func (c *responseCache) peek(key string) (*cachedResponse, bool) {
	c.mu.Lock()
	resp := c.lookup(key)
	c.mu.Unlock()
	if resp == nil {
		return nil, false
	}
	c.ctr.hits.Inc()
	return resp, true
}

// do returns the cached response for key, computing it via compute on a
// miss. Concurrent callers with one key collapse onto a single compute:
// exactly one caller (the leader) runs compute — and with it the
// admission claim, model characterisation and evaluation inside — while
// the rest wait for the leader's result. A waiting caller whose own ctx
// ends returns ctx's error without disturbing the flight; the leader
// keeps computing for everyone else and still fills the cache. A leader
// whose compute fails shares the error with the waiters already attached,
// then removes the flight so the next request starts fresh — errors are
// never cached.
func (c *responseCache) do(ctx context.Context, key string, compute func() (*cachedResponse, error)) (*cachedResponse, cacheStatus, error) {
	c.mu.Lock()
	if resp := c.lookup(key); resp != nil {
		c.mu.Unlock()
		c.ctr.hits.Inc()
		return resp, cacheHit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.ctr.collapsed.Inc()
		select {
		case <-f.done:
			return f.resp, cacheCollapsed, f.err
		case <-ctx.Done():
			return nil, cacheCollapsed, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	c.ctr.misses.Inc()

	// The flight is resolved on every exit — including a panic unwinding
	// out of compute toward the middleware's recover — so waiters never
	// hang on a flight whose leader died: they observe errFlightAborted
	// and retry.
	completed := false
	defer func() {
		if !completed {
			f.resp, f.err = nil, errFlightAborted
		}
		c.mu.Lock()
		if f.err == nil {
			c.store(key, f.resp)
		}
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
	}()
	f.resp, f.err = compute()
	completed = true
	return f.resp, cacheMiss, f.err
}
