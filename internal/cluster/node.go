package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"time"

	"iselgen/internal/obs"
	"iselgen/internal/service"
	"iselgen/internal/smt"
)

// Modes select what a non-owning replica does with a request it can
// serve but does not own.
const (
	// ModeFill (the default): serve every request locally; on a library
	// cache miss, fetch the artifact from the fingerprint's ring owner
	// and verify it into the local cache. Selection stays local — only
	// the expensive synthesis is deduplicated fleet-wide.
	ModeFill = "fill"
	// ModeForward: proxy select requests to the fingerprint's owner and
	// relay its response, falling back to local service when the owner
	// is unreachable. Concentrates each library's working set on its
	// owner at the price of a network hop per request.
	ModeForward = "forward"
)

// Config configures a cluster node.
type Config struct {
	// Self is this replica's base URL as it appears in Peers.
	Self string
	// Peers are the base URLs of every replica, self included.
	Peers []string
	// Mode is ModeFill (default) or ModeForward.
	Mode string
	// VNodes is the virtual-node count per member (0 = default 64).
	VNodes int
	// HedgeDelay is how long the primary artifact fetch runs alone
	// before a cache-only probe is hedged to the next replica in ring
	// order (0 = default 150ms; negative disables hedging).
	HedgeDelay time.Duration
	// FetchTimeout bounds one artifact fetch attempt, synthesis at the
	// owner included (0 = default 120s).
	FetchTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// peer's circuit (0 = default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects before
	// admitting a half-open probe (0 = default 5s).
	BreakerCooldown time.Duration
	// Obs receives cluster metrics and spans; share it with the wrapped
	// service so /metrics exposes both.
	Obs *obs.Obs
	// Logger, when set, receives peer-failure and degradation events.
	Logger *slog.Logger
	// Client is the HTTP client for peer calls (nil = a default client;
	// timeouts come from per-request contexts).
	Client *http.Client
}

// Node is one replica's cluster layer: the ring, the peer set with
// breakers, and the handler wrapping the local service. It implements
// service.RemoteFiller.
type Node struct {
	cfg  Config
	sv   *service.Server
	ring *Ring
	peer map[string]*peerState
}

// peerState is one remote replica as seen from this node.
type peerState struct {
	url     string
	breaker *breaker
}

// New builds the cluster layer around a local service. Wire it in with
// sv.SetFiller(node) before serving, and serve node.Handler() instead
// of sv.Handler().
func New(sv *service.Server, cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: config needs Self")
	}
	switch cfg.Mode {
	case "":
		cfg.Mode = ModeFill
	case ModeFill, ModeForward:
	default:
		return nil, fmt.Errorf("cluster: unknown mode %q (have: fill, forward)", cfg.Mode)
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = 150 * time.Millisecond
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 120 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	members := append([]string(nil), cfg.Peers...)
	selfListed := false
	for _, m := range members {
		if m == cfg.Self {
			selfListed = true
		}
	}
	if !selfListed {
		members = append(members, cfg.Self)
	}
	n := &Node{
		cfg:  cfg,
		sv:   sv,
		ring: NewRing(members, cfg.VNodes),
		peer: map[string]*peerState{},
	}
	for _, m := range n.ring.Members() {
		if m == cfg.Self {
			continue
		}
		ps := &peerState{url: m, breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)}
		n.peer[m] = ps
		if reg := cfg.Obs.MetricsOrNil(); reg != nil {
			b := ps.breaker
			reg.GaugeFunc("cluster_breaker_state",
				"peer circuit state (0 closed, 1 half-open, 2 open)",
				func() int64 { return int64(b.State()) }, "peer", m)
		}
	}
	return n, nil
}

// count bumps a cluster counter if a registry is attached.
func (n *Node) count(name, help string, labels ...string) {
	if reg := n.cfg.Obs.MetricsOrNil(); reg != nil {
		reg.Counter(name, help, labels...).Add(1)
	}
}

// OwnerOf returns the replica URL owning a fingerprint.
func (n *Node) OwnerOf(fp string) string { return n.ring.Owner(fp) }

// Self returns this replica's base URL.
func (n *Node) Self() string { return n.cfg.Self }

// peerCall is what one exchange sends; everything else about the
// round trip is shared.
type peerCall struct {
	method, path string
	body         []byte // JSON request body (nil for GET)
	limit        int64  // response size cap
	requestID    string // X-Request-Id, when set
	trace        string // obs.TraceHeader value, when set
}

// exchange is the one decoded request/response round trip this package
// makes with a peer, and the one place a peer's health is judged:
//
//	open circuit                        rejected locally, no answer
//	transport or read error, 5xx        breaker failure, no answer
//	200 that fails decode (garbage)     breaker failure, no answer
//	200 that decodes                    breaker success, the answer
//	any other status (4xx)              breaker success, no answer
//
// Every call carries the forwarded marker, so the peer answers strictly
// locally and never calls back into the fleet. decode holds each call
// site's validation (fingerprint, found, trace ID). "No answer" is a
// non-nil error, and every caller degrades on it the same way: fill
// locally, report a miss, contribute no spans, serve locally.
func exchange[T any](ctx context.Context, n *Node, ps *peerState, c peerCall, decode func([]byte) (T, error)) (T, error) {
	var zero T
	if !ps.breaker.Allow() {
		n.count("cluster_breaker_rejects", "peer calls rejected by an open circuit", "peer", ps.url)
		return zero, fmt.Errorf("cluster: circuit open for %s", ps.url)
	}
	var body io.Reader
	if c.body != nil {
		body = bytes.NewReader(c.body)
	}
	var out []byte
	var resp *http.Response
	hr, err := http.NewRequestWithContext(ctx, c.method, ps.url+c.path, body)
	if err == nil {
		if c.body != nil {
			hr.Header.Set("Content-Type", "application/json")
		}
		hr.Header.Set(service.ForwardedHeader, n.cfg.Self)
		if c.requestID != "" {
			hr.Header.Set("X-Request-Id", c.requestID)
		}
		if c.trace != "" {
			hr.Header.Set(obs.TraceHeader, c.trace)
		}
		if resp, err = n.cfg.Client.Do(hr); err == nil {
			out, err = io.ReadAll(io.LimitReader(resp.Body, c.limit))
			resp.Body.Close()
		}
	}
	var v T
	switch {
	case err != nil:
	case resp.StatusCode == http.StatusOK:
		v, err = decode(out)
	case resp.StatusCode >= 500:
		err = fmt.Errorf("answered %d", resp.StatusCode)
	default:
		ps.breaker.Success()
		return zero, fmt.Errorf("cluster: %s answered %d: %s", ps.url, resp.StatusCode, bytes.TrimSpace(out))
	}
	if err != nil {
		ps.breaker.Failure()
		n.count("cluster_peer_errors", "failed peer exchanges", "peer", ps.url)
		n.logf("peer exchange failed", "peer", ps.url, "path", c.path, "err", err.Error())
		return zero, fmt.Errorf("cluster: %s %s: %w", ps.url, c.path, err)
	}
	ps.breaker.Success()
	return v, nil
}

// leg is one side of a hedge race: an answer, or an error for none.
type leg[T any] func(context.Context) (T, error)

// hedge is the one hedge race, shared by artifact fills and memo
// probes. The primary leg starts at once; the second starts after
// delay, or as soon as the primary comes back with no answer, whichever
// is first (a negative delay or a nil second leg disables it). The
// first answer wins; if both legs come back empty, the primary's error
// is returned. Losing legs are cancelled through ctx by the caller.
func hedge[T any](ctx context.Context, delay time.Duration, primary, second leg[T]) (T, error) {
	type result struct {
		v      T
		err    error
		second bool
	}
	results := make(chan result, 2)
	run := func(l leg[T], isSecond bool) {
		v, err := l(ctx)
		results <- result{v, err, isSecond}
	}
	go run(primary, false)
	pending := 1
	var timer *time.Timer
	if second != nil && delay >= 0 {
		timer = time.AfterFunc(delay, func() { run(second, true) })
		defer timer.Stop()
		pending = 2
	}
	var primaryErr error
	for ; pending > 0; pending-- {
		r := <-results
		if r.err == nil {
			return r.v, nil
		}
		if !r.second {
			primaryErr = r.err
			if timer != nil && timer.Stop() {
				go run(second, true)
			}
		}
	}
	var zero T
	return zero, primaryErr
}

// FetchArtifact implements service.RemoteFiller: fetch the artifact from
// the fingerprint's ring owner, hedged with a cache-only probe of the
// next replica. Only the owner's leg may trigger synthesis — the hedge
// can answer from its cache but never start work, which is what keeps a
// cold key's synthesis at exactly one fleet-wide. Any error makes the
// caller fill locally.
func (n *Node) FetchArtifact(ctx context.Context, req service.FillRequest) (*service.RemoteFill, error) {
	owners := n.ring.Owners(req.Fingerprint, 2)
	if len(owners) == 0 || n.peer[owners[0]] == nil {
		// We own the key (or there is no fleet): synthesize locally.
		return nil, service.ErrLocalFill
	}
	primary := n.peer[owners[0]]
	ctx, cancel := context.WithTimeout(ctx, n.cfg.FetchTimeout)
	defer cancel()
	n.count("cluster_fills_remote", "artifact fills requested from remote owners")
	var second leg[*service.RemoteFill]
	if len(owners) > 1 && n.peer[owners[1]] != nil {
		second = func(ctx context.Context) (*service.RemoteFill, error) {
			n.count("cluster_hedges", "hedged cache-only probes issued")
			hreq := req
			hreq.CacheOnly = true
			return n.fill(ctx, n.peer[owners[1]], hreq)
		}
	}
	fill, err := hedge(ctx, n.cfg.HedgeDelay, func(ctx context.Context) (*service.RemoteFill, error) {
		return n.fill(ctx, primary, req)
	}, second)
	if err != nil {
		return nil, err
	}
	if fill.Peer != primary.url {
		n.count("cluster_hedge_wins", "hedged probes that answered first")
	}
	n.count("cluster_peer_hits", "cache misses answered by a peer artifact")
	return fill, nil
}

// fill is one POST /v1/artifact exchange. An artifact for any other
// fingerprint than the one asked for is a bad answer, like garbage.
func (n *Node) fill(ctx context.Context, ps *peerState, req service.FillRequest) (*service.RemoteFill, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	// Both legs carry the fill span's context: whichever peer answers,
	// its request span lands in the same fleet trace.
	c := peerCall{method: http.MethodPost, path: "/v1/artifact", body: body,
		limit: maxArtifactBytes, requestID: req.RequestID, trace: req.TraceParent}
	return exchange(ctx, n, ps, c, func(out []byte) (*service.RemoteFill, error) {
		var art service.ArtifactResponse
		if err := json.Unmarshal(out, &art); err != nil {
			return nil, err
		}
		if art.Fingerprint != req.Fingerprint {
			return nil, fmt.Errorf("answered fingerprint %s for %s", art.Fingerprint, req.Fingerprint)
		}
		return &service.RemoteFill{
			Text:          art.Library,
			Partial:       art.Partial,
			Stats:         art.Stats,
			Reused:        art.Reused,
			Resynthesized: art.Resynthesized,
			Peer:          ps.url,
		}, nil
	})
}

// maxArtifactBytes bounds an artifact (or forwarded select) response
// read from a peer.
const maxArtifactBytes = 64 << 20

// memoProbeTimeout bounds one solver-memo probe: a probe is two map
// lookups on the peer, so anything slower is a peer problem, and the
// caller (an API query, never the synthesis hot path) falls back to a
// plain miss.
const memoProbeTimeout = 2 * time.Second

// maxMemoBytes bounds a solver-query response read from a peer.
const maxMemoBytes = 1 << 20

// ProbeMemo implements service.MemoProber: ask the memo key's ring
// owner whether it holds a verdict, hedged to the next distinct replica.
// Every leg is cache-only by construction — the request carries the
// forwarded marker, so the peer answers strictly from its local memo
// and a fleet-wide miss costs a few map lookups, never a solve.
func (n *Node) ProbeMemo(ctx context.Context, key string) (smt.MemoEntry, bool) {
	var targets []*peerState
	for _, o := range n.ring.Owners(key, 2) {
		if ps := n.peer[o]; ps != nil {
			targets = append(targets, ps)
		}
	}
	if len(targets) == 0 {
		return smt.MemoEntry{}, false
	}
	// A sampled API query's probes join its fleet trace: the probe span
	// parents under the request span and its context rides each leg.
	var psp *obs.Span
	if tr := n.cfg.Obs.TracerOrNil(); tr != nil {
		if tc, ok := service.TraceContextFrom(ctx); ok {
			psp = tr.StartRemote("memo probe", tc)
		} else {
			psp = tr.Start("memo probe")
		}
	}
	defer psp.End()
	c := peerCall{method: http.MethodGet, path: "/v1/solver/query?key=" + url.QueryEscape(key), limit: maxMemoBytes}
	if pc := psp.Context(); pc.Valid() {
		c.trace = pc.Header()
	}
	probe := func(ps *peerState) leg[smt.MemoEntry] {
		return func(ctx context.Context) (smt.MemoEntry, error) {
			n.count("cluster_memo_probes", "cache-only solver verdict probes sent to peers")
			return exchange(ctx, n, ps, c, func(out []byte) (smt.MemoEntry, error) {
				var qr service.SolverQueryResponse
				if err := json.Unmarshal(out, &qr); err != nil {
					return smt.MemoEntry{}, err
				}
				if !qr.Found || qr.Entry == nil || qr.Key != key {
					return smt.MemoEntry{}, fmt.Errorf("200 without a verdict for %s", key)
				}
				return *qr.Entry, nil
			})
		}
	}
	var second leg[smt.MemoEntry]
	if len(targets) > 1 {
		second = func(ctx context.Context) (smt.MemoEntry, error) {
			n.count("cluster_memo_hedges", "hedged memo probes issued")
			return probe(targets[1])(ctx)
		}
	}
	ctx, cancel := context.WithTimeout(ctx, memoProbeTimeout)
	defer cancel()
	e, err := hedge(ctx, n.cfg.HedgeDelay, probe(targets[0]), second)
	if err != nil {
		return smt.MemoEntry{}, false
	}
	n.count("cluster_memo_hits", "peer memo probes that returned a verdict")
	return e, true
}

// traceCollectTimeout bounds one peer span-ring read: a bounded-ring
// export plus JSON, so anything slower is a peer problem and trace
// assembly proceeds with whatever the healthy replicas returned.
const traceCollectTimeout = 2 * time.Second

// maxTraceBytes bounds a trace-spans response read from a peer.
const maxTraceBytes = 8 << 20

// CollectTraceSpans implements service.TraceCollector: ask every peer
// for its locally recorded spans of one trace. Peers answer strictly
// from their own span rings (cache-only, loop-free), and a peer with no
// answer just contributes nothing — assembly is best-effort, exactly
// like the degradation story everywhere else in this layer.
func (n *Node) CollectTraceSpans(ctx context.Context, traceID string) []obs.TraceSpan {
	ctx, cancel := context.WithTimeout(ctx, traceCollectTimeout)
	defer cancel()
	n.count("cluster_trace_collects", "fleet trace-assembly fan-outs")
	c := peerCall{method: http.MethodGet, path: "/v1/trace/" + traceID, limit: maxTraceBytes}
	results := make(chan []obs.TraceSpan, len(n.peer))
	for _, ps := range n.peer {
		go func(ps *peerState) {
			spans, _ := exchange(ctx, n, ps, c, func(out []byte) ([]obs.TraceSpan, error) {
				var tr service.TraceSpansResponse
				if err := json.Unmarshal(out, &tr); err != nil {
					return nil, err
				}
				if tr.TraceID != traceID {
					return nil, fmt.Errorf("answered trace %s for %s", tr.TraceID, traceID)
				}
				return tr.Spans, nil
			})
			results <- spans
		}(ps)
	}
	var out []obs.TraceSpan
	for range n.peer {
		out = append(out, <-results...)
	}
	return out
}

func (n *Node) logf(msg string, args ...any) {
	if n.cfg.Logger != nil {
		n.cfg.Logger.Info(msg, args...)
	}
}

// ClusterStatus is the JSON shape of GET /v1/cluster.
type ClusterStatus struct {
	Self   string       `json:"self"`
	Mode   string       `json:"mode"`
	VNodes int          `json:"vnodes"`
	Peers  []PeerStatus `json:"peers"`
}

// PeerStatus is one replica's health as seen from this node.
type PeerStatus struct {
	URL          string `json:"url"`
	Self         bool   `json:"self,omitempty"`
	BreakerState int    `json:"breaker_state"`
	Failures     int    `json:"failures,omitempty"`
}

// Handler returns the node's HTTP handler: the local service tree plus
// GET /v1/cluster, with select requests intercepted for forwarding in
// ModeForward. The whole tree — forwarding included — sits inside the
// service's request middleware, so a forwarded request gets the same
// request span, trace context, access-log line, and latency exemplar on
// the sending replica as a locally served one (and its hop to the owner
// parents under that span).
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster", n.handleStatus)
	local := n.sv.Routes()
	if n.cfg.Mode == ModeForward {
		fwd := n.forwarder(local)
		mux.Handle("POST /v1/select", fwd)
		mux.Handle("POST /v1/select/batch", fwd)
	}
	mux.Handle("/", local)
	return n.sv.Middleware(mux)
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := ClusterStatus{Self: n.cfg.Self, Mode: n.cfg.Mode, VNodes: n.ring.vnodes}
	for _, m := range n.ring.Members() {
		ps := PeerStatus{URL: m, Self: m == n.cfg.Self}
		if p := n.peer[m]; p != nil {
			ps.BreakerState = p.breaker.State()
			ps.Failures = p.breaker.Failures()
		}
		st.Peers = append(st.Peers, ps)
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].URL < st.Peers[j].URL })
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

// maxForwardBytes bounds the request body a forwarder buffers.
const maxForwardBytes = 8 << 20

// forwarder proxies select requests to the owning replica through the
// same exchange as every other peer call, bounded by FetchTimeout. The
// owner's answer is relayed only once it has fully arrived and parses as
// JSON; any request with no answer — owner is this node, circuit open,
// transport error, 5xx, garbage or truncated 200, 4xx — is served
// locally from the buffered body. A request that already carries the
// forwarded marker is always served locally, so two skewed ring views
// cannot bounce a request between replicas forever.
func (n *Node) forwarder(local http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(service.ForwardedHeader) != "" {
			local.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxForwardBytes))
		if err != nil {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		serveLocal := func() {
			r.Body = io.NopCloser(bytes.NewReader(body))
			local.ServeHTTP(w, r)
		}
		var key struct {
			Target   string `json:"target"`
			Selector string `json:"selector"`
		}
		if err := json.Unmarshal(body, &key); err != nil {
			serveLocal() // malformed body: let the service produce its 400
			return
		}
		fp, err := n.sv.FingerprintRequest(key.Target, "", key.Selector)
		if err != nil {
			serveLocal()
			return
		}
		ps := n.peer[n.ring.Owner(fp)]
		if ps == nil { // this node owns the key
			serveLocal()
			return
		}
		// The hop joins the sender-side trace: a "cluster forward" span
		// parents under the request span, and its context rides the proxied
		// request so the owner's spans land in the same fleet trace.
		var fsp *obs.Span
		if tr := n.cfg.Obs.TracerOrNil(); tr != nil {
			if tc, ok := service.TraceContextFrom(r.Context()); ok {
				fsp = tr.StartRemote("cluster forward", tc)
			} else {
				fsp = tr.Start("cluster forward")
			}
		}
		fsp.SetStr("peer", ps.url)
		c := peerCall{method: http.MethodPost, path: r.URL.Path, body: body,
			limit: maxArtifactBytes, requestID: service.RequestIDFrom(r.Context())}
		if fc := fsp.Context(); fc.Valid() {
			c.trace = fc.Header()
		}
		ctx, cancel := context.WithTimeout(r.Context(), n.cfg.FetchTimeout)
		defer cancel()
		out, err := exchange(ctx, n, ps, c, func(out []byte) ([]byte, error) {
			if !json.Valid(out) {
				return nil, errors.New("answer is not JSON")
			}
			return out, nil
		})
		if err != nil {
			n.count("cluster_forward_local", "forwards degraded to local service")
			fsp.SetStr("outcome", "local").End()
			serveLocal()
			return
		}
		n.count("cluster_forwarded", "select requests proxied to their ring owner")
		fsp.SetInt("status", http.StatusOK).End()
		w.Header().Set("X-Iseld-Forwarded-To", ps.url)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(out)
	})
}
