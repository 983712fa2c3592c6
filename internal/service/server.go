package service

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"iselgen/internal/bench"
	"iselgen/internal/bv"
	"iselgen/internal/core"
	"iselgen/internal/enc"
	"iselgen/internal/harness"
	"iselgen/internal/incr"
	"iselgen/internal/isa"
	"iselgen/internal/isa/aarch64"
	"iselgen/internal/isa/riscv"
	"iselgen/internal/isa/x86"
	"iselgen/internal/isel"
	"iselgen/internal/mir"
	"iselgen/internal/obs"
	"iselgen/internal/rules"
	"iselgen/internal/solver"
	"iselgen/internal/spec"
	"iselgen/internal/term"
)

// fingerprintScheme versions the cache key derivation; bump it whenever
// the synthesis pipeline changes in a way that invalidates old artifacts.
const fingerprintScheme = "iselgen-cache-v1"

// maxBodyBytes bounds request bodies (inline specs included).
const maxBodyBytes = 1 << 20

// Config configures a Server.
type Config struct {
	// Workers is the synthesis worker pool size (jobs running at once).
	Workers int
	// QueueDepth bounds the waiting-job queue; a full queue answers 429.
	QueueDepth int
	// CacheDir, when non-empty, enables the disk artifact layer.
	CacheDir string
	// CacheEntries, when positive, caps the in-memory library cache and,
	// by the same rule, the incremental lineages: past the cap the
	// least-recently-used one is evicted (0 = unbounded).
	CacheEntries int
	// Synth is the server-wide synthesis configuration; its semantic
	// knobs are part of every fingerprint.
	Synth core.Config
	// MaxPatterns caps the corpus pattern pool per synthesis (0 = all).
	MaxPatterns int
	// DefaultTimeout is the per-job synthesis deadline applied when a
	// request does not set timeout_ms (0 = no deadline).
	DefaultTimeout time.Duration
	// MaxJobs caps the async jobs (queued + running) admitted through
	// POST /v1/jobs; past the cap submissions answer 429 (0 = default 64).
	MaxJobs int
	// Obs, when set, enables the observability surface: per-request
	// spans (GET /v1/trace), the Prometheus registry (GET /metrics), and
	// decision provenance. It is threaded into every synthesis job and
	// selection backend. Purely observational — never fingerprinted.
	Obs *obs.Obs
	// TraceSample is the fraction of trace-context-less requests that
	// start a new sampled distributed trace (0 = default 1.0: sample
	// everything; negative = never start traces here, though a valid
	// incoming X-Iseld-Trace context is always honored). Sampled
	// requests get a 128-bit trace ID that crosses every fleet hop and
	// resolves through GET /v1/trace/{traceId}.
	TraceSample float64
	// Logger, when set, receives one structured access-log line per
	// request (with request IDs) plus server lifecycle events.
	Logger *slog.Logger
}

// Server is the selection service: HTTP handlers over the artifact
// store and the job scheduler.
type Server struct {
	cfg       Config
	store     *Store
	sched     *Scheduler
	metrics   Metrics
	mux       *http.ServeMux
	jobs      *jobTable
	filler    RemoteFiller
	prober    MemoProber
	collector TraceCollector
	sample    float64

	obsv    *obs.Obs
	logger  *slog.Logger
	start   time.Time
	build   BuildInfo
	reqID   atomic.Uint64
	closing atomic.Bool

	// builtins resolves each (builtin target, selector) once, on first
	// use: see effectiveConfig. Read-only after New.
	builtins map[builtinKey]func() targetConfig

	// testJobGate, when set, is invoked at the start of every scheduled
	// job — the in-package tests use it to hold jobs in a deterministic
	// "running" state while they assert on singleflight and backpressure.
	testJobGate func()
}

// errNoTracer answers GET /v1/trace on a server started without one.
var errNoTracer = errors.New("no tracer attached (start the server with observability enabled)")

// New builds a Server (and its store and scheduler) from cfg.
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 8
	}
	store, err := NewStore(cfg.CacheDir, cfg.CacheEntries)
	if err != nil {
		return nil, err
	}
	if cfg.Logger != nil {
		lg := cfg.Logger
		store.SetLogger(func(format string, args ...any) {
			lg.Warn(fmt.Sprintf(format, args...))
		})
	}
	// Thread the observability sink into every synthesis job the server
	// runs (safe: Obs is not part of any cache fingerprint).
	if cfg.Synth.Obs == nil {
		cfg.Synth.Obs = cfg.Obs
	}
	sample := cfg.TraceSample
	switch {
	case sample < 0:
		sample = 0
	case sample == 0:
		sample = 1
	case sample > 1:
		sample = 1
	}
	sv := &Server{
		cfg:    cfg,
		store:  store,
		sched:  NewScheduler(cfg.Workers, cfg.QueueDepth),
		mux:    http.NewServeMux(),
		jobs:   newJobTable(cfg.MaxJobs),
		sample: sample,
		obsv:   cfg.Obs,
		logger: cfg.Logger,
		start:  time.Now(),
		build:  readBuildInfo(),
	}
	sv.builtins = map[builtinKey]func() targetConfig{}
	for _, name := range builtinTargets {
		for _, sel := range []string{"", "greedy", "optimal"} {
			sv.builtins[builtinKey{name, sel}] = sync.OnceValue(func() targetConfig {
				def, _ := sv.resolveTarget(name, "") // builtin names always resolve
				return sv.resolveConfig(def, sel)
			})
		}
	}
	sv.mux.HandleFunc("POST /v1/synthesize", sv.handleSynthesize)
	sv.mux.HandleFunc("POST /v1/select", sv.handleSelect)
	sv.mux.HandleFunc("POST /v1/select/batch", sv.handleSelectBatch)
	sv.mux.HandleFunc("POST /v1/jobs", sv.handleJobSubmit)
	sv.mux.HandleFunc("GET /v1/jobs", sv.handleJobList)
	sv.mux.HandleFunc("GET /v1/jobs/{id}", sv.handleJobGet)
	sv.mux.HandleFunc("POST /v1/artifact", sv.handleArtifact)
	sv.mux.HandleFunc("GET /v1/solver/query", sv.handleSolverQueryGet)
	sv.mux.HandleFunc("POST /v1/solver/query", sv.handleSolverQueryPost)
	sv.mux.HandleFunc("GET /v1/rules", sv.handleRuleList)
	sv.mux.HandleFunc("GET /v1/rules/{fingerprint}/why", sv.handleRuleWhy)
	sv.mux.HandleFunc("GET /v1/metrics", sv.handleMetrics)
	sv.mux.HandleFunc("GET /healthz", sv.handleHealthz)
	sv.registerObsRoutes()
	sv.registerGauges()
	return sv, nil
}

// Handler returns the HTTP handler tree, wrapped in the request
// middleware (request IDs, per-request spans, access log).
func (sv *Server) Handler() http.Handler { return sv.withObs(sv.mux) }

// Routes returns the unwrapped route tree. The cluster layer mounts it
// inside its own mux (so forwarding can intercept /v1/select) and wraps
// the whole thing in Middleware exactly once — giving forwarded
// requests the same request span, trace context, access-log line, and
// latency exemplar as locally served ones.
func (sv *Server) Routes() http.Handler { return sv.mux }

// Middleware wraps h in the request middleware (request IDs, trace
// propagation, per-request spans, metrics, access log). Pair with
// Routes when composing a larger handler tree around the service.
func (sv *Server) Middleware(h http.Handler) http.Handler { return sv.withObs(h) }

// Close drains the scheduler: queued and in-flight synthesis jobs finish
// (completing their flights) before Close returns, then the store's
// persist queue is flushed and its writer stopped.
func (sv *Server) Close() {
	sv.closing.Store(true)
	sv.jobs.wait(context.Background())
	sv.sched.Close()
	sv.store.Close()
}

// Shutdown is the graceful half of Close: it stops admitting async
// jobs, drains queued and in-flight work (async jobs included) under
// the context's deadline, and flushes the disk-cache persist queue. On
// deadline expiry it returns the context error with whatever drained;
// the store writer keeps running so a follow-up Close stays safe.
func (sv *Server) Shutdown(ctx context.Context) error {
	sv.closing.Store(true)
	done := make(chan struct{})
	go func() {
		sv.jobs.wait(ctx)
		sv.sched.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return sv.store.Flush(ctx)
}

// targetDef is everything the service needs to know about one target:
// how to fingerprint it (spec source), how to materialize it, and —
// for the builtin selection targets — how to build a backend around a
// synthesized library.
type targetDef struct {
	name    string
	spec    string
	inline  bool // spec arrived in the request, not resolved from a builtin
	load    func(b *term.Builder) (*isa.Target, error)
	backend func(tgt *isa.Target, lib *rules.Library) *isel.Backend
}

// resolveTarget maps a request to a target definition: a builtin name,
// or an inline DSL spec (checked up front so malformed specs fail fast
// with a 400 instead of inside a scheduled job).
func (sv *Server) resolveTarget(name, inline string) (targetDef, error) {
	if inline != "" {
		if name == "" {
			name = "inline"
		}
		if slices.Contains(builtinTargets, name) {
			return targetDef{}, fmt.Errorf("inline spec may not shadow builtin target %q", name)
		}
		if _, err := spec.Check(inline); err != nil {
			return targetDef{}, err
		}
		return targetDef{
			name:   name,
			spec:   inline,
			inline: true,
			load: func(b *term.Builder) (*isa.Target, error) {
				return isa.LoadTarget(b, name, inline, nil, 4)
			},
		}, nil
	}
	switch name {
	case "aarch64":
		return targetDef{name: name, spec: aarch64.Spec(), load: aarch64.Load, backend: isel.NewA64Synth}, nil
	case "riscv":
		return targetDef{name: name, spec: riscv.Spec(), load: riscv.Load, backend: isel.NewRVSynth}, nil
	case "x86":
		return targetDef{name: name, spec: x86.Spec(), load: x86.Load}, nil
	case "":
		return targetDef{}, errors.New("request must set \"target\" or \"spec\"")
	default:
		return targetDef{}, fmt.Errorf("unknown target %q (builtins: aarch64, riscv, x86)", name)
	}
}

// materialize loads the target into a fresh builder: the Materializer
// every load, resynthesis and synthesis of def starts from.
func (def targetDef) materialize() (*term.Builder, *isa.Target, error) {
	b := term.NewBuilder()
	tgt, err := def.load(b)
	return b, tgt, err
}

// builtinTargets names the targets resolved from their builtin spec.
var builtinTargets = []string{"aarch64", "riscv", "x86"}

// builtinKey indexes Server.builtins.
type builtinKey struct{ target, selector string }

// targetConfig is a target resolved against the server's synthesis
// config for one selector: the effective config, its content
// fingerprint, and the version of the cost table the config carries.
type targetConfig struct {
	cfg         core.Config
	fp          string
	costVersion string
}

// effectiveConfig returns the targetConfig a request for (def,
// selector) runs under. A builtin target's spec, config and cost table
// are fixed for the server's lifetime, so each (builtin, selector) is
// resolved once and every later request reuses it: per-request work
// stays proportional to the request, never to the spec or cost table.
// An inline spec is request input and is resolved on every request.
func (sv *Server) effectiveConfig(def targetDef, selector string) targetConfig {
	if !def.inline {
		if get, ok := sv.builtins[builtinKey{def.name, selector}]; ok {
			return get()
		}
	}
	return sv.resolveConfig(def, selector)
}

// resolveConfig computes a targetConfig: the server-wide synthesis
// config for one target (wiring in the target's special sequences,
// §VII-A, and — for the builtin selection targets — the target-derived
// cost model) and the resulting content fingerprint. The requested
// selector and the cost-table version both flow into the fingerprint
// via the config's CacheKey, so a greedy-selected artifact can never be
// answered from a cache slot an optimal request populated (or vice
// versa), and editing a cost table invalidates everything stamped under
// the old one. The deadline is deliberately not part of the key:
// partial results are never cached, and a full result is identical
// whatever budget it ran under.
func (sv *Server) resolveConfig(def targetDef, selector string) targetConfig {
	cfg := sv.cfg.Synth
	if cfg.ExtraSequences == nil {
		cfg.ExtraSequences = harness.ExtraSequences(def.name)
	}
	if cfg.CostModel == nil && def.backend != nil {
		if m, err := harness.CostModel(def.name); err == nil {
			cfg.CostModel = m
		}
	}
	if selector != "" {
		cfg.Selector = selector
	}
	fp := rules.Fingerprint(fingerprintScheme, def.name, def.spec,
		cfg.CacheKey(), fmt.Sprintf("maxpat=%d", sv.cfg.MaxPatterns))
	return targetConfig{cfg: cfg, fp: fp, costVersion: cfg.CostModel.Version()}
}

// lineageKey identifies the incremental line of descent a request
// belongs to: the full-cache fingerprint *minus the spec text*. Two
// revisions of a spec share a lineage, which is exactly what lets the
// second revision resynthesize from the first one's library.
func (sv *Server) lineageKey(def targetDef, cfg core.Config) string {
	return rules.Fingerprint(fingerprintScheme, "lineage", def.name,
		cfg.CacheKey(), fmt.Sprintf("maxpat=%d", sv.cfg.MaxPatterns))
}

// libRequest is what every library-consuming endpoint asks of the
// cache: a target (builtin, or named inline spec), a selector and a
// synthesis deadline.
type libRequest struct {
	target, spec, selector string
	timeoutMS              int64
	// selecting marks the selection endpoints: the target must have a
	// backend, and the selector is validated and defaults to greedy.
	selecting bool
	// fingerprint, when set, is the key a peer computed for the request;
	// a different key here is replica config skew (409).
	fingerprint string
}

// libQuery is a libRequest resolved against this server; tc.cfg.Selector
// is the selector it runs under.
type libQuery struct {
	def     targetDef
	tc      targetConfig
	timeout time.Duration
}

// resolve turns a libRequest into a libQuery, or into the HTTP status
// and error to answer with.
func (sv *Server) resolve(lr libRequest) (libQuery, int, error) {
	def, err := sv.resolveTarget(lr.target, lr.spec)
	if err != nil {
		return libQuery{}, http.StatusBadRequest, err
	}
	selector := lr.selector
	if lr.selecting {
		if def.backend == nil {
			return libQuery{}, http.StatusBadRequest,
				fmt.Errorf("target %q has no selection backend (selection targets: aarch64, riscv)", def.name)
		}
		if selector, err = normalizeSelector(selector); err != nil {
			return libQuery{}, http.StatusBadRequest, err
		}
	}
	tc := sv.effectiveConfig(def, selector)
	if lr.fingerprint != "" && lr.fingerprint != tc.fp {
		return libQuery{}, http.StatusConflict,
			fmt.Errorf("fingerprint mismatch: requester %s, here %s (replica config skew?)", lr.fingerprint, tc.fp)
	}
	timeout := sv.cfg.DefaultTimeout
	if lr.timeoutMS > 0 {
		timeout = time.Duration(lr.timeoutMS) * time.Millisecond
	}
	return libQuery{def: def, tc: tc, timeout: timeout}, http.StatusOK, nil
}

// acquire is the library step of every synchronous endpoint: resolve the
// request, then entryFor. On failure it has already answered w.
func (sv *Server) acquire(w http.ResponseWriter, r *http.Request, lr libRequest, allowPeer bool) (libQuery, *Entry, string, bool) {
	q, status, err := sv.resolve(lr)
	var e *Entry
	var cache string
	if err == nil {
		e, cache, status, err = sv.entryFor(r.Context(), q, allowPeer)
	}
	if err != nil {
		sv.fail(w, status, err)
		return q, nil, "", false
	}
	return q, e, cache, true
}

// entryFor implements the cache protocol shared by /v1/synthesize,
// /v1/select (single and batch), /v1/jobs, and /v1/artifact: memory
// hit, or join an in-flight job, or own a new job that runs fill. The
// returned cache string is the path taken: "hit", "disk", "peer",
// "incr", "miss", or "join". On error, the returned status is the HTTP
// code to answer with. allowPeer is false exactly when the request *is*
// a peer fill, so replicas can never fill from each other in a cycle.
func (sv *Server) entryFor(ctx context.Context, q libQuery, allowPeer bool) (e *Entry, cache string, status int, err error) {
	fp := q.tc.fp
	e, fl, owner := sv.store.Acquire(fp)
	if e != nil {
		sv.metrics.CacheHits.Add(1)
		return e, "hit", http.StatusOK, nil
	}
	if owner {
		lk := sv.lineageKey(q.def, q.tc.cfg)
		rid := RequestIDFrom(ctx)
		// The flight outlives the HTTP request (joiners may be served
		// after the opener disconnects), so the sampled trace context is
		// captured by value here and re-opened as a "synth flight" span
		// inside the detached job — the deep synthesis work then shows up
		// in the fleet trace parented under the request span that owned
		// the flight.
		tc, _ := TraceContextFrom(ctx)
		job := func() {
			if sv.testJobGate != nil {
				sv.testJobGate()
			}
			var fsp *obs.Span
			if tc.Valid() {
				fsp = sv.obsv.TracerOrNil().StartRemote("synth flight", tc).
					SetStr("fingerprint", fp)
			}
			ent, err := sv.fill(q, lk, rid, allowPeer, fsp.Context())
			origin := "error"
			if err == nil {
				origin = ent.Origin
			}
			// The span and the lineage are done before the waiters wake,
			// so whatever a client asks after its response sees both.
			fsp.SetStr("origin", origin).End()
			if err == nil && !ent.Partial {
				sv.store.setLineage(lk, ent.Target, ent.Lib)
			}
			sv.store.Complete(fp, ent, err)
		}
		if err := sv.sched.Submit(job); err != nil {
			// The flight must still resolve or joiners would hang.
			sv.store.Complete(fp, nil, err)
			status := http.StatusServiceUnavailable
			if errors.Is(err, ErrQueueFull) {
				status = http.StatusTooManyRequests
			}
			return nil, "", status, err
		}
	} else {
		sv.metrics.Joins.Add(1)
	}
	ent, err := fl.Wait(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return nil, "", http.StatusGatewayTimeout, err
		}
		return nil, "", http.StatusInternalServerError, err
	}
	switch {
	case !owner:
		cache = "join"
	case ent.Origin == "disk":
		cache = "disk"
	case ent.Origin == "incremental":
		cache = "incr"
	case ent.Origin == "peer":
		cache = "peer"
	default:
		cache = "miss"
	}
	return ent, cache, http.StatusOK, nil
}

// fill produces the entry a flight owner is missing: the disk layer,
// then — with allowPeer — the fingerprint's ring owner (across the
// fleet only the owner synthesizes a key, so N replicas missing at once
// still cost one synthesis), then an incremental resynthesis from the
// lineage's last library (same target name and config, different spec
// text), and last a synthesis from scratch.
func (sv *Server) fill(q libQuery, lk, rid string, allowPeer bool, tc obs.TraceContext) (*Entry, error) {
	if ent, ok := sv.store.LoadDisk(q.tc.fp, q.def.materialize); ok {
		sv.metrics.DiskHits.Add(1)
		return ent, nil
	}
	if allowPeer && sv.filler != nil {
		if ent, ok := sv.fillFromPeer(q, rid, tc); ok {
			sv.metrics.PeerFills.Add(1)
			return ent, nil
		}
	}
	if ent, ok := sv.runIncremental(q, lk); ok {
		return ent, nil
	}
	return sv.runSynthesis(q)
}

// withTimeout is the context a detached job runs under: timeout bounds
// it when positive.
func withTimeout(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.Background(), func() {}
}

// runIncremental attempts to answer a full-cache miss from the
// lineage's last library: load the new spec, diff its instruction
// fingerprints against the ones the library text records, re-verify
// the rules whose support is unchanged (randomized evaluation, zero
// solver queries), and synthesize only the remainder. Returns ok=false
// when the lineage has no prior result or the resynthesis fails — the
// caller then falls back to a from-scratch run.
func (sv *Server) runIncremental(q libQuery, lk string) (*Entry, bool) {
	text := sv.store.lineageText(lk)
	if text == "" {
		return nil, false
	}
	art, err := incr.ParseArtifact(text)
	if err != nil {
		return nil, false
	}
	t0 := time.Now()
	ctx, cancel := withTimeout(q.timeout)
	defer cancel()
	b, tgt, err := q.def.materialize()
	if err != nil {
		return nil, false
	}
	// The corpus is derived the same way runSynthesis derives it, which
	// is the consistency the incremental planner requires.
	pats := harness.CorpusPatterns(q.def.name, sv.cfg.MaxPatterns)
	lib, rep, err := incr.Resynthesize(b, tgt, art, incr.Options{
		Config: q.tc.cfg, Patterns: pats, Context: ctx,
	})
	if err != nil {
		return nil, false
	}
	lib.Freeze()
	sv.metrics.IncrRuns.Add(1)
	sv.metrics.RulesReused.Add(uint64(rep.Reused))
	sv.metrics.RulesResynth.Add(uint64(rep.Resynthesized))
	if rep.Curtailed {
		sv.metrics.PartialRes.Add(1)
	}
	sv.metrics.AddStages(rep.Stats)
	return &Entry{
		Fingerprint: q.tc.fp,
		TargetName:  q.def.name,
		B:           b,
		Target:      tgt,
		Lib:         lib,
		Partial:     rep.Curtailed,
		Stats:       rep.Stats,
		Elapsed:     time.Since(t0),
		Origin:      "incremental",
		Reused:      rep.Reused,
		Resynth:     rep.Resynthesized,
	}, true
}

// runSynthesis executes one full pipeline run — load target, build the
// sequence pool, synthesize the corpus patterns — under the job's own
// deadline (detached from any HTTP request context, so a disconnecting
// client cannot degrade a shared flight to a partial result).
func (sv *Server) runSynthesis(q libQuery) (*Entry, error) {
	t0 := time.Now()
	// The deadline clock starts before pool construction: the budget is
	// for the whole job, and an exhausted budget degrades the wave loop
	// to index-only lookups rather than aborting with nothing.
	ctx, cancel := withTimeout(q.timeout)
	defer cancel()
	b, tgt, err := q.def.materialize()
	if err != nil {
		return nil, err
	}
	cfg := q.tc.cfg
	syn := core.New(b, tgt, cfg)
	syn.BuildPool()
	lib := rules.NewLibrary(q.def.name)
	lib.Model = cfg.CostModel
	pats := harness.CorpusPatterns(q.def.name, sv.cfg.MaxPatterns)
	partial := syn.SynthesizeCtx(ctx, pats, lib)
	lib.Freeze()
	sv.metrics.SynthRuns.Add(1)
	if partial {
		sv.metrics.PartialRes.Add(1)
	}
	sv.metrics.AddStages(syn.Stats.Snapshot())
	return &Entry{
		Fingerprint: q.tc.fp,
		TargetName:  q.def.name,
		B:           b,
		Target:      tgt,
		Lib:         lib,
		Partial:     partial,
		Stats:       syn.Stats.Snapshot(),
		Elapsed:     time.Since(t0),
		Origin:      "synthesized",
	}, nil
}

// SynthesizeRequest is the body of POST /v1/synthesize.
type SynthesizeRequest struct {
	// Target names a builtin target (aarch64, riscv, x86) — or, with
	// Spec set, names the inline target (default "inline").
	Target string `json:"target,omitempty"`
	// Spec is inline DSL source for a custom target.
	Spec string `json:"spec,omitempty"`
	// TimeoutMS is the synthesis deadline; on expiry the response is the
	// partial library of index-proven rules with partial=true.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Emit asks for the TableGen-flavoured library text in the response.
	Emit bool `json:"emit,omitempty"`
}

// SynthesizeResponse is the body answering POST /v1/synthesize.
type SynthesizeResponse struct {
	Target      string  `json:"target"`
	Fingerprint string  `json:"fingerprint"`
	Rules       int     `json:"rules"`
	Partial     bool    `json:"partial"`
	Cache       string  `json:"cache"` // hit | disk | miss | join | incr
	ElapsedMS   float64 `json:"elapsed_ms"`
	// Reused and Resynthesized report, for cache=incr responses, how many
	// rules were carried over from the lineage's library (re-verified, no
	// solver) versus synthesized for the delta.
	Reused        int             `json:"reused_rules,omitempty"`
	Resynthesized int             `json:"resynthesized_rules,omitempty"`
	BySource      map[string]int  `json:"by_source"`
	Stats         core.StageStats `json:"stats"`
	Library       string          `json:"library,omitempty"`
}

// synthesizeResponse answers a synthesis request, synchronous or async.
func synthesizeResponse(e *Entry, cache string, emit bool) *SynthesizeResponse {
	resp := &SynthesizeResponse{
		Target:        e.TargetName,
		Fingerprint:   e.Fingerprint,
		Rules:         e.Lib.Len(),
		Partial:       e.Partial,
		Cache:         cache,
		ElapsedMS:     float64(e.Elapsed.Nanoseconds()) / 1e6,
		Reused:        e.Reused,
		Resynthesized: e.Resynth,
		BySource:      e.Lib.Summarize().BySource,
		Stats:         e.Stats,
	}
	if emit {
		resp.Library = e.Lib.Emit()
	}
	return resp
}

func (sv *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	var req SynthesizeRequest
	if !sv.decode(w, r, &req) {
		return
	}
	_, e, cache, ok := sv.acquire(w, r, libRequest{target: req.Target, spec: req.Spec, timeoutMS: req.TimeoutMS}, true)
	if ok {
		writeJSON(w, http.StatusOK, synthesizeResponse(e, cache, req.Emit))
	}
}

// SelectRequest is the body of POST /v1/select: lower one gMIR program
// from the benchmark corpus with the target's synthesized library.
type SelectRequest struct {
	Target string `json:"target"`
	// Workload names a gMIR program from the SPEC-analog suite.
	Workload string `json:"workload,omitempty"`
	// Program is an inline straight-line gMIR program in the fuzz corpus
	// text form — the alternative to Workload for arbitrary programs
	// (the load harness's path). Simulated on deterministic input
	// vectors derived from VectorSeed.
	Program string `json:"program,omitempty"`
	// VectorSeed seeds the deterministic input vectors a Program is
	// simulated on (default 1); identical across replicas by design.
	VectorSeed uint64 `json:"vector_seed,omitempty"`
	// Scale stretches the workload iteration counts (default 1).
	Scale int `json:"scale,omitempty"`
	// TimeoutMS bounds the synthesis this request may trigger on a cold
	// cache.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Selector picks the selection engine: "greedy" (default) or
	// "optimal" (bottom-up DP tiling, statically never worse under the
	// target's cost model). Part of the cache fingerprint.
	Selector string `json:"selector,omitempty"`
	// Emit asks for the selected code in the response: "mir" for the
	// selected MIR text (JSON true is accepted as a legacy alias) or
	// "bytes" for assembled machine code (hex plus a decoded listing)
	// through the spec-derived encoder.
	Emit EmitMode `json:"emit,omitempty"`
}

// EmitMode is the select endpoint's emit knob: "", "mir", or "bytes".
// It unmarshals from either a string or the legacy boolean form (true
// meaning "mir").
type EmitMode string

// UnmarshalJSON accepts `"mir"`, `"bytes"`, `""`, `true`, and `false`.
func (m *EmitMode) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case "true":
		*m = "mir"
		return nil
	case "false":
		*m = ""
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("emit must be \"mir\", \"bytes\", or a boolean")
	}
	switch s {
	case "", "mir", "bytes":
		*m = EmitMode(s)
		return nil
	}
	return fmt.Errorf("unknown emit mode %q (have: mir, bytes)", s)
}

// SelectResponse is the body answering POST /v1/select.
type SelectResponse struct {
	Target         string   `json:"target"`
	Workload       string   `json:"workload"`
	Fingerprint    string   `json:"fingerprint"`
	Cache          string   `json:"cache"`
	Partial        bool     `json:"partial"`
	Fallback       bool     `json:"fallback"`
	FallbackReason string   `json:"fallback_reason,omitempty"`
	RuleInsts      int      `json:"rule_insts"`
	HookInsts      int      `json:"hook_insts"`
	RulesUsed      []string `json:"rules_used"`
	// Selector is the engine that produced the code; CostVersion the
	// cost-table hash the request was keyed (and planned) under;
	// StaticCost the model cost "latency,size" of the selected code.
	Selector    string `json:"selector"`
	CostVersion string `json:"cost_version,omitempty"`
	StaticCost  string `json:"static_cost,omitempty"`
	Cycles      int64  `json:"cycles,omitempty"`
	Insts       int64  `json:"insts,omitempty"`
	BinarySize  int    `json:"binary_size,omitempty"`
	Checksum    string `json:"checksum,omitempty"`
	MIR         string `json:"mir,omitempty"`
	// Bytes is the assembled machine code (hex) and Listing its decoded
	// disassembly, present with emit="bytes".
	Bytes   string   `json:"bytes,omitempty"`
	Listing []string `json:"listing,omitempty"`
}

func (sv *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req SelectRequest
	if !sv.decode(w, r, &req) {
		return
	}
	var work *bench.Workload
	switch {
	case req.Program != "" && req.Workload != "":
		sv.fail(w, http.StatusBadRequest, errors.New(`set "workload" or "program", not both`))
		return
	case req.Program == "":
		suite := bench.Suite(max(req.Scale, 1))
		names := make([]string, len(suite))
		for i := range suite {
			if work == nil && suite[i].Name == req.Workload {
				work = &suite[i]
			}
			names[i] = suite[i].Name
		}
		if work == nil {
			sv.fail(w, http.StatusBadRequest, fmt.Errorf("unknown workload %q (have %v)", req.Workload, names))
			return
		}
	}
	q, e, cache, ok := sv.acquire(w, r, libRequest{target: req.Target, selector: req.Selector,
		timeoutMS: req.TimeoutMS, selecting: true}, true)
	if !ok {
		return
	}
	env := sv.newProgEnv(q, e, req.VectorSeed, 1, req.Emit)
	resp := SelectResponse{
		Target:      q.def.name,
		Workload:    "program",
		Fingerprint: e.Fingerprint,
		Cache:       cache,
		Partial:     e.Partial,
		Selector:    q.tc.cfg.Selector,
		CostVersion: q.tc.costVersion,
	}
	var res ProgramResult
	var mf *mir.Func
	if work == nil {
		res, mf = env.selectProgram(0, req.Program)
		if res.Error != "" {
			sv.fail(w, http.StatusUnprocessableEntity, fmt.Errorf("program: %s", res.Error))
			return
		}
		resp.RuleInsts, resp.HookInsts = res.RuleInsts, res.HookInsts
	} else {
		var rep *isel.Report
		res, mf, rep = env.lower(0, work.Build(), [][]bv.BV{work.Args}, work.InitMem)
		if res.Error != "" {
			sv.fail(w, http.StatusInternalServerError, errors.New(res.Error))
			return
		}
		// A workload answer reports the selector's counts even when it
		// falls back.
		resp.Workload, resp.RulesUsed = work.Name, rep.RulesUsed
		resp.RuleInsts, resp.HookInsts = rep.RuleInsts, rep.HookInsts
	}
	sv.metrics.Selections.Add(1)
	resp.Fallback, resp.FallbackReason = res.Fallback, res.FallbackReason
	resp.StaticCost, resp.Cycles, resp.Insts = res.StaticCost, res.Cycles, res.Insts
	resp.BinarySize, resp.MIR = res.BinarySize, res.MIR
	if len(res.Checksums) > 0 {
		resp.Checksum = res.Checksums[0]
	}
	if req.Emit == "bytes" && mf != nil {
		c, err := enc.NewCodec(e.Target)
		var img *enc.Image
		if err == nil {
			img, err = enc.NewAssembler(c).Assemble(mf)
		}
		if err != nil {
			sv.fail(w, http.StatusUnprocessableEntity, fmt.Errorf("emit=bytes: %w", err))
			return
		}
		resp.Bytes = hex.EncodeToString(img.Code)
		for _, ln := range c.Disassemble(img.Code, img.Base) {
			resp.Listing = append(resp.Listing, fmt.Sprintf("%#x: %s", ln.Addr, ln.Text))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (sv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	lineages, shards := sv.store.lineageCounts()
	memoHits, memoMisses, memoStores := solver.Shared.Counters()
	var exemplars []obs.HistExemplar
	if m := sv.obsv.MetricsOrNil(); m != nil {
		exemplars = m.TraceExemplars()
	}
	writeJSON(w, http.StatusOK, MetricsSnapshot{
		UptimeSec:      time.Since(sv.start).Seconds(),
		Build:          sv.build,
		CacheHits:      sv.metrics.CacheHits.Load(),
		DiskHits:       sv.metrics.DiskHits.Load(),
		Joins:          sv.metrics.Joins.Load(),
		SynthRuns:      sv.metrics.SynthRuns.Load(),
		IncrRuns:       sv.metrics.IncrRuns.Load(),
		RulesReused:    sv.metrics.RulesReused.Load(),
		RulesResynth:   sv.metrics.RulesResynth.Load(),
		PartialResults: sv.metrics.PartialRes.Load(),
		Errors:         sv.metrics.Errors.Load(),
		Selections:     sv.metrics.Selections.Load(),
		PeerFills:      sv.metrics.PeerFills.Load(),
		ArtifactServed: sv.metrics.ArtifactServed.Load(),
		BatchPrograms:  sv.metrics.BatchPrograms.Load(),
		JobsSubmitted:  sv.metrics.JobsSubmitted.Load(),
		JobsActive:     sv.jobs.activeCount(),
		CachedEntries:  sv.store.MemLen(),
		Evictions:      sv.store.Evictions(),
		ShardLineages:  lineages,
		Shards:         shards,
		QueueDepth:     sv.sched.QueueDepth(),
		QueueCapacity:  sv.sched.QueueCapacity(),
		InFlight:       sv.sched.InFlight(),
		JobsCompleted:  sv.sched.Completed(),
		JobsRejected:   sv.sched.Rejected(),
		Stages:         sv.metrics.Stages(),

		SolverMemoHits:    memoHits,
		SolverMemoMisses:  memoMisses,
		SolverMemoStores:  memoStores,
		SolverMemoEntries: solver.Shared.Len(),
		SolverJournal:     solver.Shared.Journal(),
		MemoServed:        sv.metrics.MemoServed.Load(),
		MemoPeerHits:      sv.metrics.MemoPeerHits.Load(),
		TraceExemplars:    exemplars,
	})
}

func (sv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (sv *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		sv.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func (sv *Server) fail(w http.ResponseWriter, status int, err error) {
	sv.metrics.Errors.Add(1)
	// Backpressure rejections are retryable by construction — the queue
	// drains at synthesis speed — so tell well-behaved clients when to
	// come back instead of letting them hammer the queue.
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
