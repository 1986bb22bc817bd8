package telemetry

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hybridperf/internal/api"
)

func newTestCache(capacity int, ttl time.Duration) *responseCache {
	reg := NewRegistry()
	ctr := cacheCounters{
		hits:      reg.Counter("hits_total", "").With(),
		misses:    reg.Counter("misses_total", "").With(),
		evictions: reg.Counter("evictions_total", "").With(),
		expired:   reg.Counter("expired_total", "").With(),
		collapsed: reg.Counter("collapsed_total", "").With(),
		entries:   reg.Gauge("entries", "").With(),
	}
	return newResponseCache(capacity, ttl, ctr)
}

func resp(s string) *cachedResponse {
	return &cachedResponse{Doc: api.Doc{Body: []byte(s)}}
}

func mustDo(t *testing.T, c *responseCache, key, val string) (*cachedResponse, cacheStatus) {
	t.Helper()
	r, status, err := c.do(context.Background(), key, func() (*cachedResponse, error) {
		return resp(val), nil
	})
	if err != nil {
		t.Fatalf("do(%q): %v", key, err)
	}
	return r, status
}

func TestCacheHitAndCounters(t *testing.T) {
	c := newTestCache(4, 0)
	r1, st := mustDo(t, c, "k", "v")
	if st != cacheMiss {
		t.Fatalf("first request status %q, want miss", st)
	}
	r2, st := mustDo(t, c, "k", "DIFFERENT")
	if st != cacheHit {
		t.Fatalf("second request status %q, want hit", st)
	}
	if !bytes.Equal(r1.Body, r2.Body) {
		t.Error("hit served a different body than the miss stored")
	}
	if h, m := c.ctr.hits.Value(), c.ctr.misses.Value(); h != 1 || m != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", h, m)
	}
	if n := c.ctr.entries.Value(); n != 1 {
		t.Errorf("entries gauge = %v, want 1", n)
	}
}

// TestCacheLRUEviction fills past capacity and checks the least recently
// used entry goes first — with a touch in between promoting an old entry.
func TestCacheLRUEviction(t *testing.T) {
	c := newTestCache(2, 0)
	mustDo(t, c, "a", "1")
	mustDo(t, c, "b", "2")
	mustDo(t, c, "a", "x") // touch a: now b is LRU
	mustDo(t, c, "c", "3") // evicts b
	if _, st := mustDo(t, c, "a", "recompute"); st != cacheHit {
		t.Error("promoted entry a was evicted")
	}
	if _, st := mustDo(t, c, "b", "recompute"); st != cacheMiss {
		t.Error("LRU entry b survived past capacity")
	}
	if n := c.ctr.evictions.Value(); n < 1 {
		t.Errorf("evictions = %d, want >= 1", n)
	}
	if n := c.ctr.expired.Value(); n != 0 {
		t.Errorf("expired = %d, want 0 (LRU pressure is not an expiry)", n)
	}
	if n := c.ctr.entries.Value(); n != 2 {
		t.Errorf("entries gauge = %v, want capacity 2", n)
	}
}

// TestCacheTTLExpiry advances the injected clock past the TTL and expects
// a recompute counted on the expired series — and only there: a TTL death
// must not inflate the evictions counter, which is reserved for capacity
// pressure.
func TestCacheTTLExpiry(t *testing.T) {
	c := newTestCache(4, time.Minute)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	mustDo(t, c, "k", "v1")
	now = now.Add(30 * time.Second)
	if _, st := mustDo(t, c, "k", "v2"); st != cacheHit {
		t.Error("entry expired before its TTL")
	}
	now = now.Add(31 * time.Second)
	r, st := mustDo(t, c, "k", "v3")
	if st != cacheMiss {
		t.Errorf("expired entry served as %q, want miss", st)
	}
	if string(r.Body) != "v3" {
		t.Errorf("recompute served %q, want the fresh value", r.Body)
	}
	if n := c.ctr.expired.Value(); n != 1 {
		t.Errorf("expired = %d, want 1 (the TTL expiry)", n)
	}
	if n := c.ctr.evictions.Value(); n != 0 {
		t.Errorf("evictions = %d, want 0 (expiry is not capacity pressure)", n)
	}
}

// TestCacheSingleflightCollapse gates the leader's compute open while N
// followers pile onto the same key: exactly one compute runs, everyone
// gets its result, and the counters read misses=1, collapsed=N.
func TestCacheSingleflightCollapse(t *testing.T) {
	c := newTestCache(4, 0)
	const followers = 8
	computeStarted := make(chan struct{})
	computeRelease := make(chan struct{})
	computes := 0

	leaderDone := make(chan *cachedResponse, 1)
	go func() {
		r, _, _ := c.do(context.Background(), "k", func() (*cachedResponse, error) {
			computes++
			close(computeStarted)
			<-computeRelease
			return resp("answer"), nil
		})
		leaderDone <- r
	}()
	<-computeStarted

	var wg sync.WaitGroup
	results := make([]*cachedResponse, followers)
	statuses := make([]cacheStatus, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], statuses[i], _ = c.do(context.Background(), "k", func() (*cachedResponse, error) {
				t.Error("follower ran its own compute")
				return resp("wrong"), nil
			})
		}(i)
	}
	// Wait until every follower is attached to the flight, then release.
	for {
		c.mu.Lock()
		n := c.ctr.collapsed.Value()
		c.mu.Unlock()
		if n == followers {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(computeRelease)
	wg.Wait()
	leader := <-leaderDone

	if computes != 1 {
		t.Fatalf("%d computes ran, want 1", computes)
	}
	for i := range results {
		if statuses[i] != cacheCollapsed {
			t.Errorf("follower %d status %q, want collapsed", i, statuses[i])
		}
		if !bytes.Equal(results[i].Body, leader.Body) {
			t.Errorf("follower %d got a different body", i)
		}
	}
	if h, m, col := c.ctr.hits.Value(), c.ctr.misses.Value(), c.ctr.collapsed.Value(); h != 0 || m != 1 || col != followers {
		t.Errorf("hits=%d misses=%d collapsed=%d, want 0/1/%d", h, m, col, followers)
	}
	// The flight's answer is now cached.
	if _, st := mustDo(t, c, "k", "recompute"); st != cacheHit {
		t.Error("collapsed flight did not fill the cache")
	}
}

// TestCacheErrorsNotCached: a failed compute is shared with its waiters
// but never stored — the next request retries.
func TestCacheErrorsNotCached(t *testing.T) {
	c := newTestCache(4, 0)
	boom := errors.New("boom")
	_, st, err := c.do(context.Background(), "k", func() (*cachedResponse, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) || st != cacheMiss {
		t.Fatalf("failed compute: status %q err %v", st, err)
	}
	if _, st := mustDo(t, c, "k", "retry"); st != cacheMiss {
		t.Errorf("retry after error status %q, want miss (errors must not be cached)", st)
	}
	if n := c.ctr.entries.Value(); n != 1 {
		t.Errorf("entries gauge = %v, want 1 (only the successful retry)", n)
	}
}

// TestCacheWaiterContextCancelled: a follower whose own context dies
// returns promptly with ctx's error; the leader still completes and fills
// the cache for everyone after.
func TestCacheWaiterContextCancelled(t *testing.T) {
	c := newTestCache(4, 0)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.do(context.Background(), "k", func() (*cachedResponse, error) {
			close(started)
			<-release
			return resp("v"), nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, st, err := c.do(ctx, "k", nil)
	if !errors.Is(err, context.Canceled) || st != cacheCollapsed {
		t.Fatalf("cancelled waiter: status %q err %v", st, err)
	}
	close(release)
	// The leader was undisturbed: its answer lands in the cache.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if r, st := mustDo(t, c, "k", "recompute"); st == cacheHit && string(r.Body) == "v" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader's answer never reached the cache")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCachePanickedLeaderReleasesWaiters: a leader panicking mid-compute
// must resolve the flight with a retryable error instead of leaving
// waiters hung, and the panic still propagates to the caller.
func TestCachePanickedLeaderReleasesWaiters(t *testing.T) {
	c := newTestCache(4, 0)
	started := make(chan struct{})
	proceed := make(chan struct{})
	go func() {
		defer func() { recover() }() // stand in for the HTTP middleware
		c.do(context.Background(), "k", func() (*cachedResponse, error) {
			close(started)
			<-proceed
			panic("compute exploded")
		})
	}()
	<-started
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.do(context.Background(), "k", nil)
		waiterErr <- err
	}()
	// Attach the waiter, then let the leader blow up.
	for c.ctr.collapsed.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(proceed)
	select {
	case err := <-waiterErr:
		if !errors.Is(err, errFlightAborted) {
			t.Fatalf("waiter error = %v, want errFlightAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung on the panicked leader's flight")
	}
	// The flight is gone: the next request computes fresh.
	if _, st := mustDo(t, c, "k", "fresh"); st != cacheMiss {
		t.Errorf("post-panic request status %q, want miss", st)
	}
}

// TestCacheOversizedNotStored: giant responses are served but not
// retained.
func TestCacheOversizedNotStored(t *testing.T) {
	c := newTestCache(4, 0)
	huge := &cachedResponse{Doc: api.Doc{Body: make([]byte, maxCacheEntryBytes+1)}}
	r, st, err := c.do(context.Background(), "k", func() (*cachedResponse, error) {
		return huge, nil
	})
	if err != nil || st != cacheMiss || len(r.Body) != len(huge.Body) {
		t.Fatalf("oversized compute: status %q err %v len %d", st, err, len(r.Body))
	}
	if _, st := mustDo(t, c, "k", "small"); st != cacheMiss {
		t.Error("oversized response was retained")
	}
	if n := c.ctr.entries.Value(); n != 1 {
		t.Errorf("entries gauge = %v, want 1", n)
	}
}
