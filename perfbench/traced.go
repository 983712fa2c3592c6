package main

import (
	"fmt"
	"runtime"
	"time"

	"iselgen/internal/service"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traced is the per-layer run. It calls each layer's public entry
// point from outside, with a clock (and, for serving, an allocation
// reading) around it; nothing inside the program is instrumented. A
// layer that does no work on the workload reports 0.
func (r *run) traced(t *tally) (map[string]float64, error) {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	progs, err := makePrograms(r.seed, poolSize, r.vecSeed)
	if err != nil {
		return nil, err
	}

	// Serving batches: every pool program once, selectors alternating
	// batch by batch, replicas (or, on synth, targets) round-robin.
	var specs []batchSpec
	for j := 0; j < len(progs)/batchSize; j++ {
		specs = append(specs, batchSpec{
			idx:      window(len(progs), j),
			selector: r.w.selectors[j%len(r.w.selectors)],
		})
	}

	// Serve workloads: one set-up, then a single client over HTTP, so
	// per-program latency has no queueing in it.
	var served [][]service.ProgramResult
	var httpUS float64
	if r.w.replicas > 0 {
		if served, httpUS, err = r.tracedHTTP(t, m, progs, specs); err != nil {
			return nil, err
		}
	}

	// Set-up layers, measured as set-up is: every target, several times,
	// the median of each layer.
	var loads, bases []float64
	for k := 0; k < setUps; k++ {
		var l, b time.Duration
		for _, name := range r.w.targets {
			_, ld, bd, err := loadSetup(name, true)
			if err != nil {
				return nil, err
			}
			l += ld
			b += bd
		}
		loads = append(loads, ms(l))
		bases = append(bases, ms(b))
	}
	m["spec.load_ms"], _ = median(loads)
	m["harness.baselines_ms"], _ = median(bases)

	// Synthesis layers, per target, summed.
	pls := map[string]*pipeline{}
	var stagedTotal, plainTotal time.Duration
	var cexHits, cexScreens int64
	for _, name := range r.w.targets {
		cfg, err := synthConfig(name, r.w.replicas > 0)
		if err != nil {
			return nil, err
		}
		sl, err := stagedColdWarm(name, cfg, journalPath(r.dir, name))
		t.op(err)
		t.op(err)
		if err != nil {
			return nil, err
		}
		sr, err := coldWarm(name, cfg, journalPath(r.dir, name), false)
		if err == nil && sr.artifact != sl.artifact {
			err = fmt.Errorf("%s: staged and plain syntheses produced different artifacts", name)
		}
		t.op(err)
		if sr == nil {
			return nil, err
		}
		m["pattern.extract_ms"] += ms(sl.extract)
		m["core.pool_ms"] += ms(sl.pool)
		m["core.pool_warm_ms"] += ms(sl.poolWarm)
		m["core.pool_alloc_mb"] += sl.poolAllocMB
		m["core.lookup_cold_ms"] += ms(sl.lookupCold)
		m["core.lookup_warm_ms"] += ms(sl.lookupWarm)
		m["core.lookup_alloc_mb"] += sl.lookupAllocMB
		m["solver.replay_ms"] += ms(sl.replay)
		m["synth.cold_ms"] += ms(sr.cold)
		m["synth.warm_ms"] += ms(sr.warm)
		stagedTotal += sl.pool + sl.lookupCold + sl.extract + sl.replay + sl.poolWarm + sl.lookupWarm + sl.extract
		plainTotal += sr.cold + sr.warm

		m["core.sequences"] += float64(sl.cold.Sequences)
		m["core.index_entries"] += float64(sl.cold.IndexEntries)
		m["rules.count"] += float64(sl.rules)
		m["rules.smt_rules"] += float64(sl.cold.SMTRules)
		m["smt.queries"] += float64(sl.cold.SMTQueries)
		cexHits += sl.cold.CexHits
		cexScreens += sl.cold.CexScreens
		m["smt.memo_hits"] += float64(sl.warm.MemoHits)
		m["smt.bit_blasts_cold"] += float64(sl.cold.BitBlasts)
		m["smt.bit_blasts_warm"] += float64(sl.warm.BitBlasts)
		m["sat.conflicts"] += float64(sl.cold.SATConflicts)
		m["sat.propagations"] += float64(sl.cold.SATPropagations)
		m["core.canon_ms"] += ms(sl.cold.CanonTime)
		m["core.test_eval_ms"] += ms(sl.cold.EvalTime)
		m["core.probe_ms"] += ms(sl.cold.ProbeTime)
		m["smt.cpu_ms"] += ms(sl.cold.SMTTime)

		s := sl.setup
		pls[name] = &pipeline{target: name, minWidth: minWidth(name), model: cfg.CostModel,
			greedy: s.Synth, optimal: s.SynthOpt, vecSeed: r.vecSeed}
	}
	if cexScreens > 0 {
		m["smt.cex_hit_ratio"] = float64(cexHits) / float64(cexScreens)
	}
	m["trace.synth_overhead_pct"] = 100 * (float64(stagedTotal)/float64(plainTotal) - 1)

	// Serving layers: replay the same batches in process, stage by stage.
	for j := range specs {
		specs[j].pl = pls[r.w.targets[j%len(r.w.targets)]]
		specs[j].progs = pick(progs, specs[j].idx)
	}
	rp, err := replayStaged(specs)
	if err != nil {
		return nil, err
	}
	q := newQuality()
	for j, sp := range specs {
		for k, i := range sp.idx {
			res := &rp.results[j][k]
			if q.record(t, &progs[i], i, sp.selector, res, 0, false) {
				m["isel.rule_insts_per_prog"] += float64(res.RuleInsts)
				m["isel.hook_share"] += float64(res.HookInsts)
			}
			if served != nil {
				t.op(sameResult(res, &served[j][k]))
			}
		}
	}
	if hooks, rulesN := m["isel.hook_share"], m["isel.rule_insts_per_prog"]; hooks+rulesN > 0 {
		m["isel.hook_share"] = hooks / (hooks + rulesN)
	}
	if q.selected > 0 {
		m["isel.rule_insts_per_prog"] /= float64(q.selected)
	}
	q.fallbackMetrics(m, r.log)
	if q.unattributed > 0 {
		t.problem(fmt.Errorf("%d fallbacks not attributed to an opcode and width", q.unattributed))
	}

	timed := rp.programs * replayRounds
	stages := rp.stages.perProgramUS(timed)
	for name, v := range stages {
		m[name] = v
	}
	for sel, ns := range rp.selectNS {
		m["isel.select_"+sel+"_us"] = ns / 1e3 / float64(rp.selectN[sel])
	}
	for name, kb := range rp.allocKB {
		m[name[:len(name)-len("_us")]+"_alloc_kb"] = kb
	}
	if rp.insts > 0 {
		m["sim.ns_per_inst"] = rp.simNS / float64(rp.insts)
	}
	m["sim.insts_per_prog"] = float64(rp.insts) / float64(timed)
	latency := rp.plainUS // in process, the client is the pipeline
	if r.w.replicas > 0 {
		latency = httpUS
	}
	m["service.latency_us"] = latency
	m["service.residual_us"] = residual(latency, stages)
	m["trace.overhead_pct"] = 100 * (rp.stagedUS/rp.plainUS - 1)

	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	m["go.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	return m, nil
}

// tracedHTTP brings the fleet up once and sends every batch from one
// client, replicas round-robin, between two scrapes of every replica.
func (r *run) tracedHTTP(t *tally, m map[string]float64, progs []program, specs []batchSpec) ([][]service.ProgramResult, float64, error) {
	target := r.w.targets[0]
	first := pick(progs, specs[0].idx)
	fs, err := setUp(r.iseld, r.dir, target, r.w.replicas, r.w.selectors, first, r.vecSeed, nil)
	if err != nil {
		return nil, 0, err
	}
	defer stopFleet(fs.daemons)
	recordFleet(fs.daemons)
	m["cluster.peer_fills"] = float64(fs.peerFills)
	if len(fs.peerFill) > 0 {
		var sum time.Duration
		for _, d := range fs.peerFill {
			sum += d
		}
		m["cluster.peer_fill_ms"] = ms(sum) / float64(len(fs.peerFill))
	}
	before, err := scrapeAll(fs.daemons)
	if err != nil {
		return nil, 0, err
	}
	hc := newClient()
	defer hc.CloseIdleConnections()
	var out [][]service.ProgramResult
	var total time.Duration
	programs := 0
	sent := make([]int, len(fs.daemons))
	for j, sp := range specs {
		d := j % len(fs.daemons)
		sent[d]++
		b := pick(progs, sp.idx)
		t0 := time.Now()
		resp, err := postBatch(hc, fs.daemons[d].url, target, sp.selector, b, r.vecSeed)
		total += time.Since(t0)
		programs += len(b)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, resp.Results)
	}
	after, err := scrapeAll(fs.daemons)
	if err != nil {
		return nil, 0, err
	}
	var hits, served, maxServed uint64
	batches := 0
	for i := range fs.daemons {
		hits += after[i].CacheHits - before[i].CacheHits
		n := after[i].BatchPrograms - before[i].BatchPrograms
		served += n
		maxServed = max(maxServed, n)
		batches += sent[i]
	}
	synth, fills := acquisitionDelta(before, after)
	m["service.synth_runs_timed"] = float64(synth)
	if synth != 0 || fills != 0 {
		t.problem(fmt.Errorf("steady-state guard: %d synthesis runs and %d peer fills while timing", synth, fills))
	}
	m["service.cache_hit_ratio"] = float64(hits) / float64(batches)
	m["cluster.replica_share"] = float64(maxServed) / float64(served)
	return out, float64(total.Nanoseconds()) / 1e3 / float64(programs), nil
}

// sameResult checks that the in-process replay reproduced the daemon's
// answer for a program exactly: same library, same pipeline.
func sameResult(a, b *service.ProgramResult) error {
	same := a.Error == b.Error && a.Fallback == b.Fallback && a.FallbackReason == b.FallbackReason &&
		a.RuleInsts == b.RuleInsts && a.HookInsts == b.HookInsts && a.StaticCost == b.StaticCost &&
		a.Cycles == b.Cycles && a.Insts == b.Insts && a.BinarySize == b.BinarySize &&
		len(a.Checksums) == len(b.Checksums)
	for i := 0; same && i < len(a.Checksums); i++ {
		same = a.Checksums[i] == b.Checksums[i]
	}
	if !same {
		return fmt.Errorf("in-process replay differs from the daemon: %+v vs %+v", *a, *b)
	}
	return nil
}
