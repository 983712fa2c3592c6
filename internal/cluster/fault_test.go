package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"iselgen/internal/obs"
	"iselgen/internal/service"
	"iselgen/internal/smt"
)

// faultDeadline bounds every exchange in the fault table: FetchTimeout
// for fills and forwards, the caller's context for memo probes and
// trace collection.
const faultDeadline = 200 * time.Millisecond

// Peer behaviours. Every mode but healthy is a fault; healthy is the
// control row that proves each exchange can succeed against this peer.
const (
	healthy   = "healthy"
	slow      = "slow"        // a correct answer, long after the deadline
	status5xx = "5xx"         // 503 with a text body
	garbage   = "garbage-200" // 200 with a body no decoder accepts
	truncated = "truncated"   // 200 declaring more bytes than it writes
	hang      = "never"       // never writes a response at all
)

// faultyPeer is one httptest replica answering every endpoint of the
// four cross-node exchanges in the given mode.
func faultyPeer(t *testing.T, mode string) *httptest.Server {
	t.Helper()
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode {
		case slow:
			select {
			case <-time.After(10 * faultDeadline):
			case <-release:
			}
		case hang:
			select {
			case <-r.Context().Done():
			case <-release:
			}
			return
		case status5xx:
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		case garbage:
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte("\x00\xffnot json"))
			return
		case truncated:
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", "4096")
			w.Write([]byte(`{"fingerprint":`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(correctAnswer(r))
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) }) // runs first: unblocks slow and never
	return ts
}

// correctAnswer is what a healthy replica answers on each endpoint.
func correctAnswer(r *http.Request) any {
	switch {
	case r.URL.Path == "/v1/artifact":
		var req service.FillRequest
		json.NewDecoder(r.Body).Decode(&req)
		return service.ArtifactResponse{Fingerprint: req.Fingerprint, Library: "peer-lib"}
	case r.URL.Path == "/v1/solver/query":
		return service.SolverQueryResponse{Key: r.URL.Query().Get("key"), Found: true, Entry: &smt.MemoEntry{}}
	case strings.HasPrefix(r.URL.Path, "/v1/trace/"):
		id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
		return service.TraceSpansResponse{TraceID: id, Spans: []obs.TraceSpan{{Name: "peer span"}}}
	default:
		return map[string]string{"answered_by": "owner"}
	}
}

// faultNode builds a two-member Node over [self, peer] whose ring puts
// the forwarded select request's fingerprint on peer, so every exchange
// in the table targets the faulty replica. It returns the node and that
// fingerprint (also used as the fill and memo key).
func faultNode(t *testing.T, peer string) (*Node, string) {
	t.Helper()
	sv, err := service.New(service.Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sv.Close)
	fp, err := sv.FingerprintRequest("riscv", "", "greedy")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		self := fmt.Sprintf("http://self%d.invalid", i)
		node, err := New(sv, Config{
			Self:             self,
			Peers:            []string{self, peer},
			Mode:             ModeForward,
			HedgeDelay:       -1,
			FetchTimeout:     faultDeadline,
			BreakerThreshold: 1,
			BreakerCooldown:  time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		if node.OwnerOf(fp) == peer {
			return node, fp
		}
	}
	t.Fatal("no self URL put the fingerprint on the faulty peer in 256 tries")
	return nil, ""
}

// TestFaultyPeerDegradesUniformly drives every peer fault through every
// cross-node exchange and asserts one degradation: the peer's breaker
// records the fault, and the caller carries on without it — a fill
// errors (so the service fills locally), a memo probe misses, trace
// collection contributes no spans, and a forward is served locally.
func TestFaultyPeerDegradesUniformly(t *testing.T) {
	exchanges := []struct {
		name string
		run  func(t *testing.T, n *Node, fp string) (answered bool)
	}{
		{"fill", func(t *testing.T, n *Node, fp string) bool {
			fill, err := n.FetchArtifact(context.Background(), service.FillRequest{Fingerprint: fp})
			return err == nil && fill.Text == "peer-lib"
		}},
		{"memo-probe", func(t *testing.T, n *Node, fp string) bool {
			ctx, cancel := context.WithTimeout(context.Background(), faultDeadline)
			defer cancel()
			_, ok := n.ProbeMemo(ctx, fp)
			return ok
		}},
		{"trace-collect", func(t *testing.T, n *Node, fp string) bool {
			ctx, cancel := context.WithTimeout(context.Background(), faultDeadline)
			defer cancel()
			return len(n.CollectTraceSpans(ctx, obs.NewTraceID().String())) > 0
		}},
		{"forward", func(t *testing.T, n *Node, fp string) bool {
			local := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				body, _ := io.ReadAll(r.Body)
				if !strings.Contains(string(body), `"target":"riscv"`) {
					t.Errorf("local fallback got body %q, want the buffered request", body)
				}
				w.Write([]byte("served locally"))
			})
			req := httptest.NewRequest(http.MethodPost, "/v1/select",
				strings.NewReader(`{"target":"riscv","selector":"greedy","program":"ret"}`))
			rec := httptest.NewRecorder()
			n.forwarder(local).ServeHTTP(rec, req)
			if rec.Body.String() == "served locally" {
				return false
			}
			if rec.Code != http.StatusOK || rec.Header().Get("X-Iseld-Forwarded-To") == "" ||
				!strings.Contains(rec.Body.String(), `"answered_by":"owner"`) {
				t.Errorf("forward relayed %d %q", rec.Code, rec.Body.String())
			}
			return true
		}},
	}
	for _, mode := range []string{healthy, slow, status5xx, garbage, truncated, hang} {
		for _, ex := range exchanges {
			t.Run(mode+"/"+ex.name, func(t *testing.T) {
				peer := faultyPeer(t, mode)
				node, fp := faultNode(t, peer.URL)
				t0 := time.Now()
				answered := ex.run(t, node, fp)
				if d := time.Since(t0); d > 5*faultDeadline {
					t.Errorf("exchange took %v, want it bounded near %v", d, faultDeadline)
				}
				state := node.peer[peer.URL].breaker.State()
				if mode == healthy {
					if !answered || state != BreakerClosed {
						t.Fatalf("healthy peer: answered=%v breaker=%d, want an answer and a closed breaker", answered, state)
					}
					return
				}
				if answered {
					t.Errorf("%s peer's answer was used", mode)
				}
				if state != BreakerOpen {
					t.Errorf("%s peer left the breaker in state %d, want open (fault recorded)", mode, state)
				}
			})
		}
	}
}

// TestHedgeLaunchesEarlyOnFailedOwner: when the owner comes back with no
// answer, the cache-only hedge goes out at once instead of after
// HedgeDelay, so a failed owner costs one probe, not a local synthesis.
func TestHedgeLaunchesEarlyOnFailedOwner(t *testing.T) {
	failed := fakePeer(t, 0, http.StatusServiceUnavailable, nil)
	cached := fakePeer(t, 0, http.StatusOK, func(req service.FillRequest) service.ArtifactResponse {
		if !req.CacheOnly {
			t.Errorf("hedge leg asked for a full fill; it must be cache-only")
		}
		return service.ArtifactResponse{Fingerprint: req.Fingerprint, Library: "cached-lib"}
	})
	node, key := hedgeNode(t, Config{HedgeDelay: time.Minute}, failed.URL, cached.URL)
	t0 := time.Now()
	fill, err := node.FetchArtifact(context.Background(), service.FillRequest{Fingerprint: key})
	if err != nil {
		t.Fatalf("failed owner with a cached hedge target: %v", err)
	}
	if fill.Peer != cached.URL || fill.Text != "cached-lib" {
		t.Fatalf("fill = %+v, want the hedge target's cached artifact", fill)
	}
	if d := time.Since(t0); d > 10*time.Second {
		t.Fatalf("hedge waited out the delay (%v)", d)
	}
}
