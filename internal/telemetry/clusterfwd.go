package telemetry

// Cluster request forwarding: when a static peer list is configured, each
// (system, program) model key has exactly one owning replica on the
// consistent-hash ring, and the model-serving handlers forward requests
// for keys another replica owns — so each model is characterised (and its
// response cache warmed) on one replica instead of on whichever replica
// the load balancer happened to pick. Ownership is advisory, not a
// correctness boundary: campaigns are deterministic for a fixed seed, so
// any replica can serve any key bit-identically, and a forward that fails
// at the transport falls back to serving locally rather than failing the
// request.

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"

	"hybridperf/internal/api"
	"hybridperf/internal/cluster"
	"hybridperf/internal/machine"
	"hybridperf/internal/workload"
)

// forwardedHeader marks a request that already made one replica-to-replica
// hop. The receiving replica always serves such a request locally — loop
// prevention when peer lists disagree mid-redeploy, and the escape hatch
// operators (and the CI smoke test) use to probe a specific replica's own
// cache.
const forwardedHeader = "X-Hybridperf-Forwarded"

// shardHeader names the replica whose model cache answered the request.
// Set on every response of a clustered replica; a forwarding hop copies
// the origin's value through, so clients always see the replica that did
// the work, not the one that proxied it.
const shardHeader = "X-Hybridperf-Shard"

// forwardRequestHeaders is the allowlist of client request headers a
// replica-to-replica forward copies through. Forwards are deliberate
// re-requests, not transparent proxies: only headers that change what
// the owner computes (Content-Type, Accept → body shape) or how the hop
// is observed (the trace context) propagate; cookies, auth material and
// conditional-request headers stop at the first replica. The traceparent
// is set from this hop's own trace context — a fresh child span id under
// the originating trace id — not copied from the client's raw header.
var forwardRequestHeaders = []string{"Content-Type", "Accept"}

// SetCluster makes this server one replica of a statically configured
// cluster: self must be one of peers (the replica's own advertised URL),
// and every peer must agree on the peer list for ownership to be
// consistent. Call once, after NewServer and before serving — it
// registers the cluster metric families and is not safe to race with
// requests.
func (s *Server) SetCluster(self string, peers []string) error {
	ring, err := cluster.New(peers, 0)
	if err != nil {
		return err
	}
	if !ring.Contains(self) {
		return fmt.Errorf("telemetry: -self %q is not in the peer list %v", self, peers)
	}
	s.ring = ring
	s.self = self
	// No client timeout: a forwarded cold predict legitimately waits out
	// the owner's characterisation campaign. The request context (and the
	// server's RequestTimeout, which the forwarded request inherits via
	// that context) bounds the hop instead.
	s.fwdClient = &http.Client{}
	s.mForwards = s.reg.Counter("hybridperf_cluster_forwards_total",
		"Requests forwarded to the replica owning their model key, by peer.", "peer")
	s.mForwardErrs = s.reg.Counter("hybridperf_cluster_forward_errors_total",
		"Forwarding attempts that failed at the transport and fell back to local serving, by peer.", "peer")
	return nil
}

// remoteOwner reports the peer to forward this request to: the ring owner
// of key, when clustered, when the request has not already been forwarded
// once, and when the owner is not this replica.
func (s *Server) remoteOwner(r *http.Request, key string) (string, bool) {
	if s.ring == nil || r.Header.Get(forwardedHeader) != "" {
		return "", false
	}
	owner := s.ring.Owner(key)
	if owner == s.self {
		return "", false
	}
	return owner, true
}

// forwardIfRemote forwards a single-key request (predict, sweep) when a
// remote replica owns its (system, program) model, and reports whether it
// wrote the response. Unknown names are never forwarded — the local
// handler produces the 400, identical on every replica.
func (s *Server) forwardIfRemote(w http.ResponseWriter, r *http.Request, body []byte, system, program string) bool {
	if s.ring == nil {
		return false
	}
	if _, err := machine.ByName(system); err != nil {
		return false
	}
	if _, err := workload.ByName(program); err != nil {
		return false
	}
	owner, ok := s.remoteOwner(r, cluster.ModelKey(system, program))
	if !ok {
		return false
	}
	return s.forward(w, r, body, owner)
}

// forward proxies the request body to owner at the same path and copies
// the response through, preserving streaming (each read chunk is flushed,
// so an NDJSON consumer sees lines as the owner emits them). Returns
// false — caller serves locally — only when the hop failed before any
// response byte: once the upstream status is written the fallback would
// corrupt the response, so later copy errors just end the body the way
// any broken connection would.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, body []byte, owner string) bool {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, owner+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		s.mForwardErrs.With(owner).Inc()
		return false
	}
	for _, k := range forwardRequestHeaders {
		if v := r.Header.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	if tc, ok := traceContextFor(r.Context()); ok {
		req.Header.Set(TraceparentHeader, tc.Child().Traceparent())
	}
	req.Header.Set(forwardedHeader, s.self)
	resp, err := s.fwdClient.Do(req)
	if err != nil {
		s.mForwardErrs.With(owner).Inc()
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "forward failed; serving locally",
			slog.String("peer", owner),
			slog.String("route", r.URL.Path),
			slog.Any("err", err))
		return false
	}
	defer resp.Body.Close()
	s.mForwards.With(owner).Inc()
	annotate(r.Context(), slog.String("forwarded_to", owner))
	hdr := w.Header()
	for k, vv := range resp.Header {
		// Keep this hop's own identity headers: the local request id and
		// traceparent (same trace id, this hop's span id) already point at
		// this replica's log line; the owner's values would overwrite the
		// correlation without adding one.
		if k == "X-Request-Id" || k == TraceparentHeader {
			continue
		}
		hdr.Del(k)
		for _, v := range vv {
			hdr.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp.Body)
	return true
}

// flushCopy streams src to w, flushing after every chunk so a proxied
// NDJSON response keeps its incremental delivery.
func flushCopy(w http.ResponseWriter, src io.Reader) {
	f, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if f != nil {
				f.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// batchRemoteOwner reports the single remote replica owning every tuple of
// a canonicalised batch, if there is one. Mixed-ownership batches return
// false and are served locally: splitting them is the gateway's job, and
// a replica re-fanning a batch would double the hop count for no win.
func (s *Server) batchRemoteOwner(r *http.Request, canon []api.Tuple) (string, bool) {
	if s.ring == nil || len(canon) == 0 {
		return "", false
	}
	owner := s.ring.Owner(cluster.ModelKey(canon[0].System, canon[0].Program))
	for _, t := range canon[1:] {
		if s.ring.Owner(cluster.ModelKey(t.System, t.Program)) != owner {
			return "", false
		}
	}
	return s.remoteOwner(r, cluster.ModelKey(canon[0].System, canon[0].Program))
}
