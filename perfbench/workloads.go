package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"iselgen/internal/core"
	"iselgen/internal/fuzz"
	"iselgen/internal/harness"
	"iselgen/internal/isel"
	"iselgen/internal/service"
)

// minBatches is the sample count a p99 with minTail samples beyond it
// needs.
const minBatches = 100 * minTail

func minWidth(target string) int {
	if target == "riscv" {
		return 64 // RV64 backends are 64-bit only, as in the daemon
	}
	return 32
}

// window returns the pool indices of the j-th batch of consecutive
// programs, wrapping around the pool.
func window(n, j int) []int {
	out := make([]int, batchSize)
	for k := range out {
		out[k] = (j*batchSize + k) % n
	}
	return out
}

// drawer deals one client's batches: passes over the pool, each in a
// fresh seeded random order. Every pass sends every program once, so a
// run's program mix is the pool's, while batch compositions vary.
type drawer struct {
	rng   *rand.Rand
	perm  []int
	next  int
	dealt int // batches dealt so far
}

func (r *run) newDrawer(c, n int) *drawer {
	return &drawer{rng: rand.New(rand.NewSource(int64(fuzz.SubSeed(r.seed, uint64(1000+c))))), next: n, perm: make([]int, n)}
}

func (d *drawer) batch() []int {
	d.dealt++
	out := make([]int, batchSize)
	for k := range out {
		if d.next == len(d.perm) {
			copy(d.perm, d.rng.Perm(len(d.perm)))
			d.next = 0
		}
		out[k] = d.perm[d.next]
		d.next++
	}
	return out
}

func pick(progs []program, idx []int) []*program {
	out := make([]*program, len(idx))
	for k, i := range idx {
		out[k] = &progs[i]
	}
	return out
}

// quality accumulates what the outputs say about the selected code.
type quality struct {
	programs, selected, fallbacks int64
	reasons                       map[string]int64 // fallback key -> count
	unattributed                  int64
	ratio                         map[string]float64 // (program, selector) -> cycles / handwritten
}

func newQuality() *quality {
	return &quality{reasons: map[string]int64{}, ratio: map[string]float64{}}
}

// record checks one program result against its reference and files it.
func (q *quality) record(t *tally, p *program, idx int, selector string, r *service.ProgramResult, hand int64, handOK bool) bool {
	err := p.verify(r)
	t.op(err)
	q.programs++
	if err != nil {
		return false
	}
	if r.Fallback {
		q.fallbacks++
		if op, w, ok := parseFallback(r.FallbackReason); ok {
			q.reasons[fallbackKey(op, w)]++
		} else {
			q.unattributed++
		}
		return false
	}
	q.selected++
	if handOK && hand > 0 {
		q.ratio[fmt.Sprintf("%d/%s", idx, selector)] = float64(r.Cycles) / float64(hand)
	}
	return true
}

func (q *quality) merge(o *quality) {
	q.programs += o.programs
	q.selected += o.selected
	q.fallbacks += o.fallbacks
	q.unattributed += o.unattributed
	for k, v := range o.reasons {
		q.reasons[k] += v
	}
	for k, v := range o.ratio {
		q.ratio[k] = v
	}
}

func (q *quality) cyclesRatio() (float64, error) {
	var xs []float64
	for _, v := range q.ratio {
		xs = append(xs, v)
	}
	return geomean(xs)
}

// fallbackMetrics reports fallbacks by opcode and width. Keys outside
// the declared set are summed into isel.fallbacks.other and logged.
func (q *quality) fallbackMetrics(m map[string]float64, log func(string, ...any)) {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	for _, op := range []string{"G_SMIN", "G_SMAX"} {
		for _, w := range []int{32, 64} {
			m[fallbackKey(op, w)] = 0
		}
	}
	m["isel.fallbacks.other"] = 0
	for k, v := range q.reasons {
		log("fallbacks %s: %d", k, v)
		if declared[k] {
			m[k] = float64(v)
		} else {
			m["isel.fallbacks.other"] += float64(v)
		}
	}
	m["isel.fallbacks.unattributed"] = float64(q.unattributed)
	m["fallback_rate"] = 0
	if q.programs > 0 {
		m["fallback_rate"] = float64(q.fallbacks) / float64(q.programs)
	}
}

// handPipeline loads a serve workload's target in process: the
// handwritten baseline the served code is compared against, and the
// daemon's cost model.
func (r *run) handPipeline(target string) (*pipeline, error) {
	s, _, _, err := loadSetup(target, true)
	if err != nil {
		return nil, err
	}
	cfg, err := synthConfig(target, true)
	if err != nil {
		return nil, err
	}
	return &pipeline{target: target, minWidth: minWidth(target), model: cfg.CostModel, hand: s.Handwritten, vecSeed: r.vecSeed}, nil
}

// handCycles precomputes every program's handwritten-baseline cycles.
func handCycles(pl *pipeline, progs []program) ([]int64, []bool, error) {
	cyc := make([]int64, len(progs))
	ok := make([]bool, len(progs))
	for i := range progs {
		c, sel, err := pl.handCycles(&progs[i])
		if err != nil {
			return nil, nil, fmt.Errorf("program %d: %w", i, err)
		}
		cyc[i], ok[i] = c, sel
	}
	return cyc, ok, nil
}

func (r *run) untraced(t *tally) (map[string]float64, error) {
	progs, err := makePrograms(r.seed, poolSize, r.vecSeed)
	if err != nil {
		return nil, err
	}
	if r.w.replicas == 0 {
		return r.synthUntraced(t, progs)
	}
	return r.serveUntraced(t, progs)
}

// synthUntraced: set-up loads both specs and builds the baselines; the
// timed phase alternates cold/warm synthesis iterations with slices of
// serving seeded programs in process from the freshly synthesized
// libraries, --seconds of serving in all; harness.RunSuite then checks
// the synthesized backends on the 9-kernel suite.
func (r *run) synthUntraced(t *tally, progs []program) (map[string]float64, error) {
	m := map[string]float64{}
	var setup []float64
	for k := 0; k < setUps; k++ {
		t0 := time.Now()
		for _, name := range r.w.targets {
			if _, _, _, err := loadSetup(name, true); err != nil {
				return nil, err
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	cfg := core.DefaultConfig()
	var cold, warm []float64
	ref := map[string]string{}
	last := map[string]*synthRun{}
	q := newQuality()
	var samples []batchSample
	var serveTime time.Duration
	dr := r.newDrawer(0, len(progs))
	// Synthesis and in-process serving alternate, so the samples of
	// every metric spread over the whole phase: the host's speed drifts
	// over tens of seconds, and a block of one kind of work at the end
	// of the run would see one part of that drift only. Past the last
	// synthesis, serving goes on while it is short of the batches the
	// p99 needs, within a cap.
	var pls []*pipeline
	for i := 0; i < slices || (len(samples) < minBatches && serveTime < 3*r.seconds); i++ {
		if i < slices {
			var c, w time.Duration
			for _, name := range r.w.targets {
				sr, err := r.synthOnce(t, name, cfg, ref, true)
				if err != nil {
					return nil, err
				}
				c += sr.cold
				w += sr.warm
				last[name] = sr
			}
			cold = append(cold, c.Seconds())
			warm = append(warm, w.Seconds())

			// Serve seeded programs from the libraries just synthesized,
			// one client. A batch is the same programs selected for every
			// target, so batch latency has one mode rather than one per
			// target.
			pls = nil
			for _, name := range r.w.targets {
				s := last[name].warmSet
				// The synthesizer's pool is dead weight from here on; left
				// live, every collection while serving would mark it.
				s.Synther = nil
				pls = append(pls, &pipeline{target: name, minWidth: minWidth(name), greedy: s.Synth, vecSeed: r.vecSeed})
			}
		}
		runtime.GC()
		for until := serveTime + r.seconds/slices; serveTime < until; {
			b := pick(progs, dr.batch())
			t0 := time.Now()
			var res [][]service.ProgramResult
			for _, pl := range pls {
				rs, err := pl.selectBatch(b, "greedy", nil)
				if err != nil {
					return nil, err
				}
				res = append(res, rs)
			}
			d := time.Since(t0)
			serveTime += d
			sel := 0
			for _, rs := range res {
				for k := range rs {
					if q.record(t, b[k], 0, "greedy", &rs[k], 0, false) {
						sel++
					}
				}
			}
			samples = append(samples, batchSample{done: serveTime, ms: float64(d.Nanoseconds()) / 1e6, selected: sel})
		}
	}
	r.log("synth: %d iterations, cold %v, warm %v", len(cold), cold, warm)
	r.log("synth: served %d programs in %d batches over %v", q.programs, len(samples), serveTime)

	// Table III and Figs. 9/11: the suite on the synthesized backends
	// against the handwritten one.
	var ratios []float64
	var kernels, fellBack int
	for _, name := range r.w.targets {
		s := last[name].warmSet
		s.Baselines = []*isel.Backend{s.Handwritten}
		rows, err := s.RunSuite(1)
		t.op(err)
		if err != nil {
			continue
		}
		norm := harness.Normalized(rows, s.Handwritten.Name)
		for _, row := range rows {
			if row.Backend != s.Synth.Name {
				continue
			}
			kernels++
			if row.Fallback {
				fellBack++
			}
			ratios = append(ratios, norm[row.Workload][row.Backend])
		}
	}
	if kernels == 0 {
		return nil, fmt.Errorf("suite check produced no rows")
	}
	var err error
	m["setup_s"], _ = median(setup)
	m["synth_cold_s"], _ = median(cold)
	m["synth_warm_s"], _ = median(warm)
	if err := r.serveMetrics(m, samples, serveTime); err != nil {
		return nil, err
	}
	m["rule_coverage"] = 1 - float64(fellBack)/float64(kernels)
	if m["cycles_vs_handwritten"], err = geomean(ratios); err != nil {
		return nil, err
	}
	if m["peak_rss_mb"], err = vmHWM("/proc/self/status"); err != nil {
		return nil, err
	}
	return m, nil
}

// synthOnce runs one cold and one warm synthesis of a target, checks
// both artifacts against the run's first, and counts two operations.
func (r *run) synthOnce(t *tally, name string, cfg core.Config, ref map[string]string, baselines bool) (*synthRun, error) {
	sr, err := coldWarm(name, cfg, journalPath(r.dir, name), baselines)
	if sr == nil {
		return nil, err
	}
	t.op(nil)
	if err == nil {
		if want, ok := ref[name]; !ok {
			ref[name] = sr.artifact
		} else if want != sr.artifact {
			err = fmt.Errorf("%s: artifact differs from this run's first", name)
		}
	}
	t.op(err)
	return sr, nil
}

// serveMetrics reports selected_per_s, batch_p50_ms and batch_p99_ms
// from a serve phase's batches in completion order (serveStats).
func (r *run) serveMetrics(m map[string]float64, samples []batchSample, phase time.Duration) error {
	var err error
	m["selected_per_s"], m["batch_p50_ms"], m["batch_p99_ms"], err = serveStats(samples, phase, statWindow)
	if err != nil {
		return err
	}
	_, segs, _ := segmentedTail(latencies(samples), 0.99)
	r.log("%d batches over %v: %.0f selected/s, p50 %.3f ms (medians over %v windows), p99 per segment %.3f ms",
		len(samples), phase, m["selected_per_s"], m["batch_p50_ms"], statWindow, segs)
	return nil
}

// serveUntraced: set-up spawns the daemons and waits for every
// (replica, selector) to answer, three times; the timed phase runs the
// closed loop on the last fleet between two guard scrapes; then the
// target is synthesized cold and warm in process, as on synth.
func (r *run) serveUntraced(t *tally, progs []program) (map[string]float64, error) {
	m := map[string]float64{}
	target := r.w.targets[0]
	pl, err := r.handPipeline(target)
	if err != nil {
		return nil, err
	}
	hand, handOK, err := handCycles(pl, progs)
	if err != nil {
		return nil, err
	}
	first := pick(progs, window(len(progs), 0))
	var setup []float64
	var fs *fleetSetup
	var fps []string // unknown until the first fleet has answered
	for k := 0; k < setUps; k++ {
		if fs != nil {
			stopFleet(fs.daemons)
			fps = fs.fps
		}
		fs, err = setUp(r.iseld, r.dir, target, r.w.replicas, r.w.selectors, first, r.vecSeed, fps)
		if err != nil {
			return nil, err
		}
		setup = append(setup, fs.dur.Seconds())
		for _, resp := range fs.results {
			for i := range resp.Results {
				if err := first[i].verify(&resp.Results[i]); err != nil {
					t.problem(fmt.Errorf("set-up batch: %w", err))
				}
			}
		}
	}
	recordFleet(fs.daemons)
	cfg, err := synthConfig(target, true)
	if err != nil {
		stopFleet(fs.daemons)
		return nil, err
	}
	q, samples, elapsed, cold, warm, err := r.servePhase(t, fs.daemons, progs, hand, handOK, cfg)
	if err != nil {
		stopFleet(fs.daemons)
		return nil, err
	}
	rss := 0.0
	for _, d := range fs.daemons {
		v, err := d.peakRSSMB()
		if err != nil {
			stopFleet(fs.daemons)
			return nil, err
		}
		rss += v
	}
	stopFleet(fs.daemons)
	r.log("in-process %s synthesis: cold %v, warm %v; set-ups %v", target, cold, warm, setup)

	m["setup_s"], _ = median(setup)
	m["synth_cold_s"], _ = median(cold)
	m["synth_warm_s"], _ = median(warm)
	if err := r.serveMetrics(m, samples, elapsed); err != nil {
		return nil, err
	}
	m["rule_coverage"] = 1 - float64(q.fallbacks)/float64(q.programs)
	if m["cycles_vs_handwritten"], err = q.cyclesRatio(); err != nil {
		return nil, err
	}
	m["peak_rss_mb"] = rss
	r.log("served %d programs (%d selected, %d fell back) in %d batches over %v",
		q.programs, q.selected, q.fallbacks, len(samples), elapsed)
	r.log("cycles compared on %d (program, selector) pairs", len(q.ratio))
	for k, v := range q.reasons {
		r.log("fallbacks %s: %d", k, v)
	}
	if q.unattributed > 0 {
		t.problem(fmt.Errorf("%d fallbacks not attributed to an opcode and width", q.unattributed))
	}
	return m, nil
}

// servePhase is a serve workload's timed phase: slices of the closed
// loop alternate with in-process cold/warm syntheses of the served
// target, so the samples of every metric spread over the whole phase
// (the host's speed drifts over tens of seconds). The replicas idle
// while the benchmark synthesizes; phase counts serving time only. Past
// the phase length, serving goes on until the batches the p99 needs are
// in, within a cap. Between slices at least two syntheses run, and a
// target that synthesizes in a fraction of a second repeats for a share
// of the phase length instead. The fleet is scraped before and after:
// a synthesis or peer fill in between means the phase measured library
// acquisition, not serving, and fails the run.
func (r *run) servePhase(t *tally, ds []*daemon, progs []program, hand []int64, handOK []bool, cfg core.Config) (q *quality, samples []batchSample, phase time.Duration, cold, warm []float64, err error) {
	target := r.w.targets[0]
	ref := map[string]string{}
	before, err := scrapeAll(ds)
	if err != nil {
		return nil, nil, 0, nil, nil, err
	}
	drawers := make([]*drawer, r.nproc)
	for c := range drawers {
		drawers[c] = r.newDrawer(c, len(progs))
	}
	q = newQuality()
	for (phase < r.seconds || len(samples) < minBatches) && phase < 3*r.seconds {
		sq, ss, d := r.closedLoop(t, ds, progs, hand, handOK, drawers, r.seconds/slices)
		for _, b := range ss {
			b.done += phase
			samples = append(samples, b)
		}
		phase += d
		q.merge(sq)
		t0 := time.Now()
		for k := 0; k < 2 || time.Since(t0) < r.seconds/(3*slices); k++ {
			sr, err := r.synthOnce(t, target, cfg, ref, false)
			if err != nil {
				return nil, nil, 0, nil, nil, err
			}
			cold = append(cold, sr.cold.Seconds())
			warm = append(warm, sr.warm.Seconds())
		}
	}
	after, err := scrapeAll(ds)
	if err != nil {
		return nil, nil, 0, nil, nil, err
	}
	if synth, fills := acquisitionDelta(before, after); synth != 0 || fills != 0 {
		t.problem(fmt.Errorf("steady-state guard: %d synthesis runs and %d peer fills inside the timed phase", synth, fills))
	}
	return q, samples, phase, cold, warm, nil
}

// closedLoop is one slice of the timed phase: nproc clients, client c
// pinned to replica c and dealt batches by drawer c, each sending its
// next batch when the previous one has been answered and alternating
// the workload's selectors batch by batch, for dur. Every program result
// is checked against its reference. It returns the batches in
// completion order, timed from the slice's start, and the slice's
// length.
func (r *run) closedLoop(t *tally, ds []*daemon, progs []program, hand []int64, handOK []bool, drawers []*drawer, dur time.Duration) (*quality, []batchSample, time.Duration) {
	clients := len(drawers)
	qs := make([]*quality, clients)
	samples := make([][]batchSample, clients)
	tallies := make([]tally, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			d := ds[c%len(ds)]
			dr := drawers[c]
			q := newQuality()
			for time.Since(start) < dur {
				sel := r.w.selectors[dr.dealt%len(r.w.selectors)]
				idx := dr.batch()
				b := pick(progs, idx)
				t0 := time.Now()
				resp, err := postBatch(hc, d.url, r.w.targets[0], sel, b, r.vecSeed)
				now := time.Now()
				bs := batchSample{done: now.Sub(start), ms: float64(now.Sub(t0).Nanoseconds()) / 1e6}
				if err != nil {
					for range b {
						tallies[c].op(err)
					}
				} else {
					for k, i := range idx {
						if q.record(&tallies[c], b[k], i, sel, &resp.Results[k], hand[i], handOK[i]) {
							bs.selected++
						}
					}
				}
				samples[c] = append(samples[c], bs)
			}
			qs[c] = q
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	q := newQuality()
	var all []batchSample
	for c := range qs {
		q.merge(qs[c])
		all = append(all, samples[c]...)
		t.attempted += tallies[c].attempted
		t.failed += tallies[c].failed
		t.problems = append(t.problems, tallies[c].problems...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	return q, all, elapsed
}
