package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"iselgen/internal/core"
	"iselgen/internal/harness"
)

var testSelectors = []string{"", "greedy", "optimal"}

// TestBuiltinConfigCacheMatchesFresh checks every builtin target ×
// selector: the cached config, fingerprint and cost version equal a
// fresh, uncached resolution, and repeated lookups agree.
func TestBuiltinConfigCacheMatchesFresh(t *testing.T) {
	sv, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	for _, name := range builtinTargets {
		def, err := sv.resolveTarget(name, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, sel := range testSelectors {
			got := sv.effectiveConfig(def, sel)
			fresh := sv.resolveConfig(def, sel)
			if got.fp != fresh.fp || got.costVersion != fresh.costVersion {
				t.Errorf("%s/%q: cached (%s, %s) != fresh (%s, %s)",
					name, sel, got.fp, got.costVersion, fresh.fp, fresh.costVersion)
			}
			if got.cfg.CacheKey() != fresh.cfg.CacheKey() || got.cfg.Selector != fresh.cfg.Selector {
				t.Errorf("%s/%q: cached config %q differs from fresh %q",
					name, sel, got.cfg.CacheKey(), fresh.cfg.CacheKey())
			}
			if again := sv.effectiveConfig(def, sel); again.fp != got.fp || again.cfg.CostModel != got.cfg.CostModel {
				t.Errorf("%s/%q: repeated lookup returned a different resolution", name, sel)
			}
			if fp, err := sv.FingerprintRequest(name, "", sel); err != nil || fp != got.fp {
				t.Errorf("%s/%q: FingerprintRequest = %s, %v; want %s", name, sel, fp, err, got.fp)
			}
			// The cost version is the target cost table's, or "-" for a
			// target without a selection backend.
			want := "-"
			if def.backend != nil {
				m, err := harness.CostModel(name)
				if err != nil {
					t.Fatal(err)
				}
				want = m.Version()
			}
			if got.costVersion != want {
				t.Errorf("%s/%q: cost version %s, want %s", name, sel, got.costVersion, want)
			}
		}
	}
}

// TestBuiltinConfigCachePerServer proves the cache is per Server, not
// global: servers whose MaxPatterns or Synth config differ resolve
// every builtin × selector to different fingerprints, and servers with
// equal configs agree.
func TestBuiltinConfigCachePerServer(t *testing.T) {
	base := testConfig()
	morePatterns := testConfig()
	morePatterns.MaxPatterns++
	moreInputs := testConfig()
	moreInputs.Synth = core.Config{TestInputs: 32, Workers: 2, SMTMaxConflicts: 64}
	fps := func(cfg Config) map[builtinKey]string {
		sv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sv.Close()
		out := map[builtinKey]string{}
		for _, name := range builtinTargets {
			for _, sel := range testSelectors {
				fp, err := sv.FingerprintRequest(name, "", sel)
				if err != nil {
					t.Fatal(err)
				}
				out[builtinKey{name, sel}] = fp
			}
		}
		return out
	}
	a, a2 := fps(base), fps(base)
	for label, other := range map[string]map[builtinKey]string{
		"MaxPatterns": fps(morePatterns),
		"Synth":       fps(moreInputs),
	} {
		for k, fp := range a {
			if a2[k] != fp {
				t.Errorf("%v: equal configs disagree: %s vs %s", k, fp, a2[k])
			}
			if other[k] == fp {
				t.Errorf("%v: a server with a different %s shares fingerprint %s", k, label, fp)
			}
		}
	}
}

// TestBuiltinResolveAllocs bounds the request-path cost of resolving a
// builtin target: a constant number of allocations, the same for the
// generated aarch64 spec as for the small x86 one.
func TestBuiltinResolveAllocs(t *testing.T) {
	sv, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	var sink targetConfig
	for _, name := range builtinTargets {
		for _, sel := range testSelectors {
			allocs := testing.AllocsPerRun(50, func() {
				def, err := sv.resolveTarget(name, "")
				if err != nil {
					t.Fatal(err)
				}
				sink = sv.effectiveConfig(def, sel)
			})
			if allocs != 0 {
				t.Errorf("%s/%q: %.1f allocations per resolve, want 0", name, sel, allocs)
			}
		}
	}
	_ = sink
}

// TestConcurrentBatchesBothSelectors runs greedy and optimal batches
// concurrently, starting cold: every response must equal a sequential
// answer for its selector (cache field aside) and echo the cached
// fingerprint and cost version.
func TestConcurrentBatchesBothSelectors(t *testing.T) {
	sv, ts := newTestServer(t, testConfig())
	def, err := sv.resolveTarget("riscv", "")
	if err != nil {
		t.Fatal(err)
	}
	progs := []string{apiProg, "v0 = param 64\nv1 = param 64\nv2 = sub 64 v0 v1\nret v2\n"}
	post := func(selector string) (BatchSelectResponse, string, error) {
		body, err := json.Marshal(BatchSelectRequest{Target: "riscv", Selector: selector, Programs: progs, VectorSeed: 3})
		if err != nil {
			return BatchSelectResponse{}, "", err
		}
		resp, err := http.Post(ts.URL+"/v1/select/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return BatchSelectResponse{}, "", err
		}
		defer resp.Body.Close()
		var br BatchSelectResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			return br, "", err
		}
		if resp.StatusCode != http.StatusOK {
			return br, "", fmt.Errorf("status %d", resp.StatusCode)
		}
		br.Cache = ""
		norm, err := json.Marshal(br)
		return br, string(norm), err
	}

	const workers, rounds = 8, 4
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sel := testSelectors[1+w%2]
			for i := 0; i < rounds; i++ {
				br, norm, err := post(sel)
				if err != nil {
					t.Errorf("%s batch: %v", sel, err)
					return
				}
				if br.Selected == 0 {
					t.Errorf("%s batch selected nothing: %+v", sel, br.Results)
				}
				tc := sv.effectiveConfig(def, sel)
				if br.Fingerprint != tc.fp || br.CostVersion != tc.costVersion {
					t.Errorf("%s batch: fingerprint %s cost %s, want %s %s",
						sel, br.Fingerprint, br.CostVersion, tc.fp, tc.costVersion)
				}
				got[w] = append(got[w], norm)
			}
		}()
	}
	wg.Wait()
	for _, sel := range testSelectors[1:] {
		_, want, err := post(sel)
		if err != nil {
			t.Fatal(err)
		}
		for w := range got {
			if testSelectors[1+w%2] != sel {
				continue
			}
			for _, norm := range got[w] {
				if norm != want {
					t.Fatalf("%s: concurrent answer differs from sequential:\n%s\n---\n%s", sel, norm, want)
				}
			}
		}
	}
}
