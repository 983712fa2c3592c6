package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"iselgen/internal/isa/riscv"
)

// svcSpecEdited is svcSpec with one semantic edit: ORNrr or-inverts no
// longer — it became a plain OR. Every rule whose support includes ORNrr
// goes stale; everything else reuses.
var svcSpecEdited = strings.Replace(svcSpec,
	"inst ORNrr(rn: reg64, rm: reg64) { rd = rn | ~rm; }",
	"inst ORNrr(rn: reg64, rm: reg64) { rd = rn | rm; }", 1)

// ruleLines returns the rule lines of the library text /v1/artifact
// serves for an inline spec.
func ruleLines(t *testing.T, base, name, spec string) map[string]bool {
	t.Helper()
	status, body := postJSON(t, base+"/v1/artifact", FillRequest{Target: name, Spec: spec})
	if status != http.StatusOK {
		t.Fatalf("artifact %s: status %d: %s", name, status, body)
	}
	var ar ArtifactResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	lines := map[string]bool{}
	for _, ln := range strings.Split(ar.Library, "\n") {
		if ln != "" && !strings.HasPrefix(ln, "#") {
			lines[ln] = true
		}
	}
	return lines
}

// TestIncrementalSpecEdit is the service-level acceptance for the
// lineage libraries: after one full synthesis, a whitespace-only edit
// resynthesizes from the lineage's library text with every rule reused,
// zero solver queries and the same rules, and a semantic edit still
// answers incrementally, re-running synthesis only for the touched
// instruction. The inputs are the small test ISA and the riscv spec
// inline under a non-builtin name.
func TestIncrementalSpecEdit(t *testing.T) {
	rv := riscv.Spec()
	cases := []struct {
		name, spec, semantic string
	}{
		{"mini", svcSpec, svcSpecEdited},
		{"rv", rv, strings.Replace(rv, "rd = rs1 ^ rs2;", "rd = rs1 | rs2;", 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.semantic == tc.spec {
				t.Fatal("semantic edit left the spec unchanged")
			}
			_, ts := newTestServer(t, testConfig())
			synth := func(what, spec string) SynthesizeResponse {
				t.Helper()
				status, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: tc.name, Spec: spec})
				if status != http.StatusOK {
					t.Fatalf("%s: status %d: %s", what, status, body)
				}
				return decodeSynth(t, body)
			}

			// 1. Cold lineage: full synthesis.
			first := synth("seed synthesis", tc.spec)
			if first.Cache != "miss" {
				t.Fatalf("seed cache = %q, want miss", first.Cache)
			}

			// 2. Whitespace-only edit: new spec text, so the full cache
			// misses — but the instruction fingerprints are unchanged, so
			// the lineage answers with every rule reused and the solver
			// never consulted.
			ws := synth("whitespace edit", tc.spec+"\n")
			if ws.Cache != "incr" {
				t.Fatalf("whitespace edit cache = %q, want incr", ws.Cache)
			}
			if ws.Fingerprint == first.Fingerprint {
				t.Error("edited spec reused the seed fingerprint")
			}
			if ws.Rules != first.Rules || ws.Reused != first.Rules || ws.Resynthesized != 0 {
				t.Errorf("whitespace edit: rules=%d reused=%d resynth=%d, want %d/%d/0",
					ws.Rules, ws.Reused, ws.Resynthesized, first.Rules, first.Rules)
			}
			if ws.Stats.SMTQueries != 0 {
				t.Errorf("whitespace edit consulted the solver %d times, want 0", ws.Stats.SMTQueries)
			}
			if seed, got := ruleLines(t, ts.URL, tc.name, tc.spec), ruleLines(t, ts.URL, tc.name, tc.spec+"\n"); !maps.Equal(seed, got) {
				t.Errorf("whitespace edit changed the rule lines:\nseed %v\ngot  %v", seed, got)
			}

			// 3. Semantic edit to one instruction: still answered from the
			// lineage, with rules reused.
			sem := synth("semantic edit", tc.semantic)
			if sem.Cache != "incr" {
				t.Fatalf("semantic edit cache = %q, want incr", sem.Cache)
			}
			if sem.Rules == 0 || sem.Reused == 0 {
				t.Errorf("semantic edit: rules=%d reused=%d, want both > 0", sem.Rules, sem.Reused)
			}

			m := getMetrics(t, ts.URL)
			if m.SynthRuns != 1 {
				t.Errorf("synth_runs = %d, want 1 (edits must not trigger full synthesis)", m.SynthRuns)
			}
			if m.IncrRuns != 2 {
				t.Errorf("incr_runs = %d, want 2", m.IncrRuns)
			}
			if m.RulesReused == 0 {
				t.Error("rules_reused = 0 after two incremental runs")
			}
			if m.ShardLineages != 1 || m.Shards == 0 {
				t.Errorf("shard_lineages=%d shards=%d, want 1 lineage with shards", m.ShardLineages, m.Shards)
			}
		})
	}
}

// TestStoreLRU exercises the memory-layer cap directly: the
// least-recently-used entry is evicted, and a recent touch protects an
// old entry.
func TestStoreLRU(t *testing.T) {
	s, err := NewStore("", 2)
	if err != nil {
		t.Fatal(err)
	}
	add := func(fp string) {
		if _, _, owner := s.Acquire(fp); !owner {
			t.Fatalf("expected to own flight for %s", fp)
		}
		s.Complete(fp, &Entry{Fingerprint: fp}, nil)
	}
	add("a")
	add("b")
	if e, _, _ := s.Acquire("a"); e == nil { // touch "a": now "b" is LRU
		t.Fatal("entry a missing before eviction")
	}
	add("c")
	if n := s.MemLen(); n != 2 {
		t.Errorf("mem len = %d, want 2", n)
	}
	if s.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions())
	}
	if e, _, _ := s.Acquire("b"); e != nil {
		t.Error("LRU entry b survived eviction")
	}
	s.Complete("b", nil, fmt.Errorf("test: abandon flight"))
	if e, _, _ := s.Acquire("a"); e == nil {
		t.Error("recently used entry a was evicted")
	}
	if e, _, _ := s.Acquire("c"); e == nil {
		t.Error("newest entry c was evicted")
	}
}

// TestServerCacheCap proves the cap is wired through Config: with room
// for one entry, synthesizing two targets leaves one cached and counts
// the eviction in /v1/metrics.
func TestServerCacheCap(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEntries = 1
	_, ts := newTestServer(t, cfg)

	for i := 1; i <= 2; i++ {
		req := SynthesizeRequest{Target: fmt.Sprintf("t%d", i), Spec: svcSpec}
		if status, body := postJSON(t, ts.URL+"/v1/synthesize", req); status != http.StatusOK {
			t.Fatalf("target %d: status %d: %s", i, status, body)
		}
	}
	m := getMetrics(t, ts.URL)
	if m.CachedEntries != 1 {
		t.Errorf("cached_entries = %d, want 1 under CacheEntries=1", m.CachedEntries)
	}
	if m.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", m.Evictions)
	}
}

// TestLineagesFollowCacheCap: the lineages are capped by CacheEntries
// with the library cache's LRU rule — inline specs name their own
// targets, so without the cap every new name would add a lineage for
// good. The surviving lineage is the most recent one.
func TestLineagesFollowCacheCap(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEntries = 1
	_, ts := newTestServer(t, cfg)
	synth := func(name, spec string) SynthesizeResponse {
		t.Helper()
		status, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: name, Spec: spec})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, status, body)
		}
		return decodeSynth(t, body)
	}
	for i := 1; i <= 3; i++ {
		synth(fmt.Sprintf("t%d", i), svcSpec)
	}
	m := getMetrics(t, ts.URL)
	if m.CachedEntries != 1 || m.ShardLineages != 1 {
		t.Errorf("cached_entries=%d shard_lineages=%d, want 1 and 1 under CacheEntries=1",
			m.CachedEntries, m.ShardLineages)
	}
	if got := synth("t3", svcSpec+"\n").Cache; got != "incr" {
		t.Errorf("edit of the newest lineage: cache %q, want incr", got)
	}
	if got := synth("t1", svcSpec+"\n").Cache; got != "miss" {
		t.Errorf("edit of an evicted lineage: cache %q, want miss", got)
	}
}

// TestRetryAfterOnBackpressure: a 429 from a full queue carries a
// Retry-After header so clients back off instead of spinning.
func TestRetryAfterOnBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	sv, ts := newTestServer(t, cfg)

	started := make(chan struct{}, 3)
	release := make(chan struct{})
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(release) }) }
	sv.testJobGate = func() {
		started <- struct{}{}
		<-release
	}
	defer releaseAll()

	post := func(i int) (*http.Response, error) {
		buf, _ := json.Marshal(SynthesizeRequest{Target: fmt.Sprintf("r%d", i), Spec: svcSpec})
		return http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(buf))
	}
	go func() {
		if resp, err := post(1); err == nil {
			resp.Body.Close()
		}
	}()
	<-started // job 1 occupies the only worker
	go func() {
		if resp, err := post(2); err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for getMetrics(t, ts.URL).QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := post(3)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Error("429 response has no Retry-After header")
	}
	releaseAll()
}
