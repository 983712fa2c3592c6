// Command iseld is the selection-as-a-service daemon: it synthesizes
// rule libraries on demand (once per spec + config fingerprint), caches
// them in memory and on disk, and serves selection and metrics over
// HTTP/JSON.
//
// Endpoints:
//
//	POST /v1/synthesize   synthesize (or fetch) a library for a builtin
//	                      target or an inline DSL spec
//	POST /v1/select       lower a benchmark gMIR program (or an inline
//	                      "program") with a target's synthesized backend
//	                      and simulate it; the "selector" field picks
//	                      the engine ("greedy" or "optimal" — the
//	                      cost-model DP tiler), and each selector keys
//	                      its own cached library entry (the cost-table
//	                      version rides in the fingerprint)
//	POST /v1/select/batch lower many inline programs in one request
//	                      against one library acquisition
//	POST /v1/jobs         submit a synthesis asynchronously: answers 202
//	                      with a job ID to poll
//	GET  /v1/jobs/{id}    job progress and, when done, the result
//	POST /v1/artifact     serve (or produce) a serialized library for a
//	                      peer replica's cache fill
//	GET  /v1/solver/query look up one memoized SMT verdict by its
//	                      content-addressed key (?key=...); misses probe
//	                      cluster peers cache-only and answer 404 — the
//	                      endpoint never solves
//	POST /v1/solver/query the same lookup with the key in a JSON body
//	GET  /v1/rules/{fingerprint}/why
//	                      a rule's provenance joined with the memoized
//	                      solver queries its synthesis ran
//	GET  /v1/cluster      ring membership and per-peer breaker state
//	                      (clustered mode only)
//	GET  /v1/metrics      cache/queue counters, per-stage timings, build
//	                      info, and uptime (JSON)
//	GET  /metrics         the same counters plus latency histograms in
//	                      Prometheus text format (strict 0.0.4;
//	                      ?exemplars=1 adds OpenMetrics-style trace
//	                      exemplar annotations)
//	GET  /v1/trace        recent pipeline spans as Chrome trace-event
//	                      JSON (open in chrome://tracing or Perfetto)
//	GET  /v1/trace/{traceId}
//	                      one distributed trace assembled fleet-wide:
//	                      every replica's spans for the trace ID, merged
//	                      with clock-offset normalization into a single
//	                      Chrome trace (?format=spans for the raw span
//	                      set); trace IDs come from the X-Iseld-Trace
//	                      response header, access-log lines, and the
//	                      latency-histogram exemplars on
//	                      /metrics?exemplars=1
//	GET  /debug/pprof/    Go runtime profiles
//	GET  /healthz         liveness
//
// Every response carries an X-Request-Id header that also appears in
// the structured access log on stderr.
//
// Usage: iseld [-addr :8791] [-cache-dir DIR] [-cache-entries N]
//
//	[-workers N] [-synth-workers N] [-queue N] [-patterns N] [-timeout D]
//	[-trace-spans N] [-trace-sample F] [-no-obs] [-max-jobs N]
//	[-peers URL,URL,...] [-self URL] [-cluster-mode fill|forward]
//	[-hedge D] [-breaker-failures N] [-breaker-cooldown D]
//	[-drain-timeout D]
//
// With -peers set, replicas form a consistent-hash ring over cache
// fingerprints: a miss is filled from its ring owner over HTTP (so a
// cold key is synthesized once fleet-wide), reads are hedged, per-peer
// circuit breakers isolate dead replicas, and everything degrades to
// local-only service when the fleet is unreachable. On SIGTERM the
// daemon stops accepting, drains in-flight work under -drain-timeout,
// and flushes the disk cache before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"iselgen/internal/cluster"
	"iselgen/internal/core"
	"iselgen/internal/obs"
	"iselgen/internal/service"
	"iselgen/internal/smt"
	"iselgen/internal/solver"
)

// options are the command-line settings of iseld.
type options struct {
	addr            string
	cacheDir        string
	cacheEntries    int
	workers         int
	synthWorkers    int
	queue           int
	patterns        int
	timeout         time.Duration
	inputs          int
	cexCache        int
	traceSpans      int
	traceSample     float64
	noObs           bool
	maxJobs         int
	peers           string
	self            string
	clusterMode     string
	hedge           time.Duration
	breakerFailures int
	breakerCooldown time.Duration
	drainTimeout    time.Duration
}

// newFlags declares iseld's command-line flags on a fresh flag set.
func newFlags() (*flag.FlagSet, *options) {
	cli := &options{}
	fs := flag.NewFlagSet("iseld", flag.ExitOnError)
	fs.StringVar(&cli.addr, "addr", ":8791", "listen address")
	fs.StringVar(&cli.cacheDir, "cache-dir", "", "disk artifact cache directory (empty = memory only)")
	fs.IntVar(&cli.cacheEntries, "cache-entries", 0, "LRU cap on in-memory cached libraries and, separately, on incremental lineages (0 = unbounded)")
	fs.IntVar(&cli.workers, "workers", 2, "synthesis jobs running at once")
	fs.IntVar(&cli.synthWorkers, "synth-workers", 0, "matcher threads per synthesis job (0 = ISEL_WORKERS or NumCPU)")
	fs.IntVar(&cli.queue, "queue", 8, "waiting-job queue depth (full queue answers 429)")
	fs.IntVar(&cli.patterns, "patterns", 0, "limit corpus patterns per synthesis (0 = all)")
	fs.DurationVar(&cli.timeout, "timeout", 0, "default per-job synthesis deadline (0 = none)")
	fs.IntVar(&cli.inputs, "inputs", 0, "test inputs per sequence (0 = default)")
	fs.IntVar(&cli.cexCache, "cex-cache", 0, "counterexample cache capacity (0 = ISEL_CEX_CACHE or default)")
	fs.IntVar(&cli.traceSpans, "trace-spans", 0, "span ring capacity for /v1/trace (0 = default)")
	fs.Float64Var(&cli.traceSample, "trace-sample", 0, "fraction of requests starting a distributed trace (0 = all, <0 = none; valid incoming X-Iseld-Trace contexts are always honored)")
	fs.BoolVar(&cli.noObs, "no-obs", false, "disable tracing, histograms, and decision provenance")
	fs.IntVar(&cli.maxJobs, "max-jobs", 0, "cap on async jobs queued+running via POST /v1/jobs (0 = default)")
	fs.StringVar(&cli.peers, "peers", "", "comma-separated base URLs of every replica, self included (empty = standalone)")
	fs.StringVar(&cli.self, "self", "", "this replica's base URL as it appears in -peers")
	fs.StringVar(&cli.clusterMode, "cluster-mode", cluster.ModeFill, "cluster mode: fill (peer cache fills) or forward (proxy to owner)")
	fs.DurationVar(&cli.hedge, "hedge", 150*time.Millisecond, "delay before hedging a cache-only probe to the next replica (<0 = off)")
	fs.IntVar(&cli.breakerFailures, "breaker-failures", 3, "consecutive peer failures that open its circuit")
	fs.DurationVar(&cli.breakerCooldown, "breaker-cooldown", 5*time.Second, "open-circuit cooldown before a half-open probe")
	fs.DurationVar(&cli.drainTimeout, "drain-timeout", 30*time.Second, "graceful-shutdown budget: drain in-flight work and flush the disk cache")
	return fs, cli
}

func main() {
	fs, cli := newFlags()
	fs.Parse(os.Args[1:])

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	var o *obs.Obs
	if !cli.noObs {
		o = obs.New()
		if cli.traceSpans > 0 {
			o.Trace = obs.NewTracer(cli.traceSpans)
		}
		// Deep layers (spec parse/symexec) pick the default up since
		// their APIs carry no configuration.
		obs.SetDefault(o)
	}

	cfg := core.DefaultConfig()
	cfg.Workers = core.ResolveWorkers(cli.synthWorkers)
	if cli.inputs > 0 {
		cfg.TestInputs = cli.inputs
	}
	// The counterexample screen is a pure perf knob (verdict-preserving,
	// excluded from cache fingerprints), resolved flag > env > default.
	smt.Cex.SetCapacity(smt.ResolveCexCap(cli.cexCache))

	// With a disk cache configured, the solver verdict memo persists
	// alongside the artifacts: settled equivalence verdicts from past
	// daemon lifetimes replay at startup, so a warm restart re-verifies
	// libraries without re-running a single bit-blast.
	if cli.cacheDir != "" {
		solver.Shared.SetLogger(func(format string, args ...any) {
			logger.Warn(fmt.Sprintf(format, args...))
		})
		jp := filepath.Join(cli.cacheDir, "solver.journal")
		if err := os.MkdirAll(cli.cacheDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "iseld:", err)
			os.Exit(1)
		}
		if err := solver.Shared.AttachJournal(jp); err != nil {
			logger.Warn("solver journal unavailable, memo is in-memory only", "path", jp, "err", err.Error())
		} else {
			js := solver.Shared.Journal()
			logger.Info("solver journal attached",
				"path", jp, "verdicts", js.Loaded, "quarantined", js.Quarantined)
		}
	}
	sv, err := service.New(service.Config{
		Workers:        cli.workers,
		QueueDepth:     cli.queue,
		CacheDir:       cli.cacheDir,
		CacheEntries:   cli.cacheEntries,
		Synth:          cfg,
		MaxPatterns:    cli.patterns,
		DefaultTimeout: cli.timeout,
		MaxJobs:        cli.maxJobs,
		Obs:            o,
		TraceSample:    cli.traceSample,
		Logger:         logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "iseld:", err)
		os.Exit(1)
	}

	// With peers configured, wrap the service in the cluster layer: the
	// ring routes cache-fill ownership, and the handler gains forwarding
	// (in forward mode) plus GET /v1/cluster.
	handler := http.Handler(nil)
	if cli.peers != "" {
		var peerList []string
		for _, p := range strings.Split(cli.peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, strings.TrimRight(p, "/"))
			}
		}
		if cli.self == "" {
			fmt.Fprintln(os.Stderr, "iseld: -peers requires -self (this replica's URL in the peer list)")
			os.Exit(1)
		}
		node, err := cluster.New(sv, cluster.Config{
			Self:             strings.TrimRight(cli.self, "/"),
			Peers:            peerList,
			Mode:             cli.clusterMode,
			HedgeDelay:       cli.hedge,
			BreakerThreshold: cli.breakerFailures,
			BreakerCooldown:  cli.breakerCooldown,
			Obs:              o,
			Logger:           logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "iseld:", err)
			os.Exit(1)
		}
		sv.SetFiller(node)
		sv.SetMemoProber(node)
		sv.SetTraceCollector(node)
		handler = node.Handler()
		logger.Info("iseld clustered",
			"self", cli.self, "peers", len(peerList), "mode", cli.clusterMode)
	} else {
		handler = sv.Handler()
	}

	hs := &http.Server{Addr: cli.addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("iseld listening",
		"addr", cli.addr, "workers", cli.workers, "queue", cli.queue,
		"cache_dir", cli.cacheDir, "observability", !cli.noObs)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("iseld shutting down", "signal", sig.String())
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "iseld:", err)
		os.Exit(1)
	}

	// Graceful drain under one budget: stop accepting connections, let
	// in-flight requests (async jobs included) finish, then flush the
	// disk-cache persist queue — so a SIGTERM'd replica leaves nothing
	// half-answered and nothing uncached.
	ctx, cancel := context.WithTimeout(context.Background(), cli.drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Error("iseld shutdown", "err", err)
	}
	if err := sv.Shutdown(ctx); err != nil {
		logger.Error("iseld drain", "err", err)
	}
	sv.Close()
	logger.Info("iseld stopped")
}
