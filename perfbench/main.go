// Command perfbench is the repository's benchmark: three workloads that
// cover offline synthesis and online selection serving, each reporting
// the same end-to-end metrics (untraced runs) and per-layer metrics
// (traced runs), with every output checked against an independent
// reference. See README.md for what each metric means on each workload.
//
//	perfbench --workload synth --seed 1 --seconds 15 --trace 0 --iseld .bench_build/iseld
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload (README.md gives each workload's
// definition).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"synth_cold_s", "s"},
	{"synth_warm_s", "s"},
	{"selected_per_s", "1/s"},
	{"batch_p50_ms", "ms"},
	{"batch_p99_ms", "ms"},
	{"rule_coverage", "share"},
	{"cycles_vs_handwritten", "ratio"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics. A layer that does no work on a
// workload reports 0 there.
var perLayer = []metricDef{
	{stParse, "us"}, {stBuild, "us"}, {stLegalize, "us"}, {stSelect, "us"},
	{"isel.select_greedy_us", "us"}, {"isel.select_optimal_us", "us"},
	{stStatic, "us"}, {stSimulate, "us"}, {stEncode, "us"},
	{"service.residual_us", "us"}, {"service.latency_us", "us"},
	{"sim.ns_per_inst", "ns"}, {"sim.insts_per_prog", "count"},

	{"fuzz.parse_alloc_kb", "KiB"}, {"gmir.build_alloc_kb", "KiB"}, {"gmir.legalize_alloc_kb", "KiB"},
	{"isel.select_alloc_kb", "KiB"}, {"cost.static_alloc_kb", "KiB"}, {"sim.simulate_alloc_kb", "KiB"},
	{"service.encode_alloc_kb", "KiB"},

	{"isel.rule_insts_per_prog", "count"}, {"isel.hook_share", "share"}, {"fallback_rate", "share"},
	{fallbackKey("G_SMIN", 32), "count"}, {fallbackKey("G_SMIN", 64), "count"},
	{fallbackKey("G_SMAX", 32), "count"}, {fallbackKey("G_SMAX", 64), "count"},
	{"isel.fallbacks.other", "count"}, {"isel.fallbacks.unattributed", "count"},

	{"service.cache_hit_ratio", "share"}, {"service.synth_runs_timed", "count"},
	{"cluster.peer_fills", "count"}, {"cluster.peer_fill_ms", "ms"}, {"cluster.replica_share", "share"},

	{"spec.load_ms", "ms"}, {"harness.baselines_ms", "ms"}, {"pattern.extract_ms", "ms"},
	{"core.pool_ms", "ms"}, {"core.pool_warm_ms", "ms"}, {"core.pool_alloc_mb", "MiB"},
	{"core.lookup_cold_ms", "ms"}, {"core.lookup_warm_ms", "ms"}, {"core.lookup_alloc_mb", "MiB"},
	{"solver.replay_ms", "ms"},
	{"synth.cold_ms", "ms"}, {"synth.warm_ms", "ms"},

	{"core.sequences", "count"}, {"core.index_entries", "count"}, {"rules.count", "count"},
	{"rules.smt_rules", "count"}, {"smt.queries", "count"}, {"smt.cex_hit_ratio", "share"},
	{"smt.memo_hits", "count"}, {"smt.bit_blasts_cold", "count"}, {"smt.bit_blasts_warm", "count"},
	{"sat.conflicts", "count"}, {"sat.propagations", "count"},

	{"core.canon_ms", "ms"}, {"core.test_eval_ms", "ms"}, {"core.probe_ms", "ms"}, {"smt.cpu_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_pct", "%"}, {"trace.synth_overhead_pct", "%"},
}

// workload is one benchmark workload: which targets it synthesizes or
// serves, and how.
type workload struct {
	name      string
	targets   []string // in-process synthesis targets
	replicas  int      // iseld child processes; 0 = in-process only
	selectors []string // batch selectors, alternated per client
}

var workloads = []workload{
	{name: "synth", targets: []string{"aarch64", "riscv"}, selectors: []string{"greedy"}},
	{name: "serve-riscv", targets: []string{"riscv"}, replicas: 1, selectors: []string{"greedy"}},
	{name: "serve-aarch64-fleet", targets: []string{"aarch64"}, replicas: 2, selectors: []string{"greedy", "optimal"}},
}

// Fixed sizes. Batches of 8 give a serve run of a few seconds well over
// the 1000 batches a p99 with ten samples beyond it needs. The pool is
// the seed's sample of the program space: large enough that the
// program mix, and with it every metric, varies little from seed to
// seed, small enough to check every program with every selector once
// per run.
const (
	batchSize = 8
	poolSize  = 2048
	setUps    = 3 // set-ups per run; setup_s is their median
	// slices is how many parts the serving of a run's timed phase is cut
	// into, each followed by synthesis (see servePhase, synthUntraced).
	slices = 4
)

// run is one invocation's options and scratch space.
type run struct {
	w       workload
	seed    uint64
	vecSeed uint64
	seconds time.Duration
	iseld   string
	dir     string // scratch directory inside the checkout
	nproc   int
	log     func(format string, args ...any)
}

// outcome is what a run prints last.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts operations and records why any failed.
type tally struct {
	attempted, failed int64
	problems          []string
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.problems) < 20 {
			t.problems = append(t.problems, err.Error())
		}
	}
}

// problem fails the run without counting an operation (a broken
// guard or check rather than a failed program).
func (t *tally) problem(err error) {
	t.problems = append(t.problems, err.Error())
}

func main() {
	wname := flag.String("workload", "", "workload: synth, serve-riscv or serve-aarch64-fleet")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	iseld := flag.String("iseld", "", "iseld binary (serve workloads)")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *wname {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wname, *seconds, *trace)
		os.Exit(2)
	}
	if w.replicas > 0 && *iseld == "" {
		fmt.Fprintln(os.Stderr, "perfbench: serve workloads need -iseld")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	vecSeed := *seed
	if vecSeed == 0 {
		vecSeed = 1
	}
	r := &run{
		w: *w, seed: *seed, vecSeed: vecSeed, seconds: time.Duration(*seconds) * time.Second,
		iseld: *iseld, dir: dir, nproc: runtime.NumCPU(),
		log: func(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) },
	}
	printProvenance(r, root, *trace == 1)

	var metrics map[string]float64
	var t tally
	if *trace == 1 {
		metrics, err = r.traced(&t)
	} else {
		metrics, err = r.untraced(&t)
	}
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out := outcome{Correct: t.failed == 0 && len(t.problems) == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			fatal(fmt.Errorf("metric %s was not measured", d.name))
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(metrics) != len(defs) {
		fatal(fmt.Errorf("measured %d metrics, declared %d", len(metrics), len(defs)))
	}
	for _, d := range defs {
		fmt.Printf("%-30s %16.6g %s\n", d.name, metrics[d.name], d.unit)
	}
	for _, p := range t.problems {
		r.log("FAIL: %s", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printProvenance records what produced the numbers: machine, Go,
// source revision and seeds. The exact daemon flags follow on their own
// line once the measured fleet is up (see recordFleet).
func printProvenance(r *run, root string, traced bool) {
	prov := map[string]any{
		"workload":    r.w.name,
		"seed":        r.seed,
		"vector_seed": r.vecSeed,
		"seconds":     r.seconds.Seconds(),
		"traced":      traced,
		"nproc":       r.nproc,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"commit":      gitCommit(root),
		"source":      sourceDigest(root),
		"clients":     r.nproc,
		"batch_size":  batchSize,
		"pool_size":   poolSize,
	}
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(line))
}

// recordFleet prints the exact command-line flags of the replicas a
// run measures.
func recordFleet(ds []*daemon) {
	var flags [][]string
	for _, d := range ds {
		flags = append(flags, d.flags)
	}
	line, _ := json.Marshal(map[string]any{"iseld_flags": flags})
	fmt.Println(string(line))
}

// gitCommit names the checked-out commit, when the tree is a git
// checkout at all.
func gitCommit(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	// Look no further than the checkout itself.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root),
		"GIT_CONFIG_NOSYSTEM=1", "GIT_CONFIG_GLOBAL="+os.DevNull)
	out, err := cmd.Output()
	if err != nil {
		return "none (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the tree, so
// runs from a plain export can still be matched to their source.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
