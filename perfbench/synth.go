package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"iselgen/internal/core"
	"iselgen/internal/harness"
	"iselgen/internal/isa"
	"iselgen/internal/isa/aarch64"
	"iselgen/internal/isa/riscv"
	"iselgen/internal/isel"
	"iselgen/internal/smt"
	"iselgen/internal/solver"
	"iselgen/internal/term"
)

// loadSetup loads a target spec and, when asked, builds its baselines,
// returning the two times separately. It builds the same Setup
// harness.NewAArch64 and harness.NewRISCV do, with a clock between the
// two layers. Synthesis alone needs no baselines.
func loadSetup(name string, baselines bool) (s *harness.Setup, loadDur, baseDur time.Duration, err error) {
	b := term.NewBuilder()
	t0 := time.Now()
	var tgt *isa.Target
	switch name {
	case "aarch64":
		tgt, err = aarch64.Load(b)
	case "riscv":
		tgt, err = riscv.Load(b)
	default:
		err = fmt.Errorf("unknown target %q", name)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	s = &harness.Setup{Name: name, B: b, ISA: tgt}
	if !baselines {
		return s, t1.Sub(t0), 0, nil
	}
	if name == "aarch64" {
		set := isel.NewA64Backends(b, tgt)
		s.Baselines = []*isel.Backend{set.DAG, set.Handwritten, set.Naive}
		s.Handwritten = set.Handwritten
	} else {
		set := isel.NewRVBackends(b, tgt)
		s.Baselines = []*isel.Backend{set.DAG, set.Handwritten}
		s.Handwritten = set.Handwritten
	}
	return s, t1.Sub(t0), time.Since(t1), nil
}

// synthConfig is the configuration a workload synthesizes under: the
// offline default for the synth workload, and for a serve workload the
// daemon's effective config (target cost model, §VII-A extras).
func synthConfig(name string, daemon bool) (core.Config, error) {
	cfg := core.DefaultConfig()
	if !daemon {
		return cfg, nil
	}
	m, err := harness.CostModel(name)
	if err != nil {
		return cfg, err
	}
	cfg.CostModel = m
	return cfg, nil
}

// synthRun is one cold synthesis followed by one warm synthesis after a
// simulated restart, both of one target.
type synthRun struct {
	cold, warm time.Duration
	warmSet    *harness.Setup
	artifact   string
}

// coldWarm runs the pipeline the way iselgen and iselbench do: a cold
// full synthesis with the verdict memo and counterexample cache reset
// and verdicts journalled to a fresh file, then a warm one on a fresh
// builder after forgetting every in-memory verdict and replaying that
// journal. Both timings include the journal attach; spec loading is
// set-up and is not timed. The warm artifact must equal the cold one
// byte for byte, and the warm run must bit-blast nothing. baselines
// asks for the warm setup's baselines, for callers that go on to
// compare against them.
func coldWarm(name string, cfg core.Config, journal string, baselines bool) (*synthRun, error) {
	if err := os.Remove(journal); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	s, _, _, err := loadSetup(name, false)
	if err != nil {
		return nil, err
	}
	out := &synthRun{}
	solver.Shared.DetachJournal()
	solver.Shared.Reset()
	smt.Cex.Reset()
	// Each timed synthesis starts from a collected heap, as it does in a
	// fresh iselgen or iseld process: Synthesize turns the collector off
	// under a fixed memory limit, so garbage left by earlier work would
	// otherwise decide whether a collection lands inside the timing.
	runtime.GC()
	t0 := time.Now()
	if err := solver.Shared.AttachJournal(journal); err != nil {
		return nil, err
	}
	lib := s.Synthesize(cfg, 0)
	out.cold = time.Since(t0)
	out.artifact = isel.SaveLibraryFor(lib, s.ISA)

	solver.Shared.DetachJournal()
	solver.Shared.Reset()
	smt.Cex.Reset()
	s2, _, _, err := loadSetup(name, baselines)
	if err != nil {
		return nil, err
	}
	out.warmSet = s2
	runtime.GC()
	t1 := time.Now()
	if err := solver.Shared.AttachJournal(journal); err != nil {
		return nil, err
	}
	lib2 := s2.Synthesize(cfg, 0)
	out.warm = time.Since(t1)
	solver.Shared.DetachJournal()
	if art := isel.SaveLibraryFor(lib2, s2.ISA); art != out.artifact {
		return out, fmt.Errorf("%s: warm artifact (%d rules) differs from cold (%d rules)", name, lib2.Len(), lib.Len())
	}
	if n := s2.Synther.Stats.BitBlasts; n != 0 {
		return out, fmt.Errorf("%s: warm synthesis bit-blasted %d queries", name, n)
	}
	return out, nil
}

// synthLayers is the traced breakdown of coldWarm for one target: each
// layer's public entry point called on its own, with a clock around it.
type synthLayers struct {
	extract                    time.Duration
	pool, poolWarm, replay     time.Duration
	lookupCold, lookupWarm     time.Duration
	poolAllocMB, lookupAllocMB float64
	cold, warm                 core.Stats
	rules                      int
	artifact                   string
	setup                      *harness.Setup
}

// batchGC applies the GC policy harness.Setup.Synthesize applies to its
// own batch phase, so a pool built outside it is timed the same way.
func batchGC() (restore func()) {
	limit := debug.SetMemoryLimit(1 << 30)
	pct := debug.SetGCPercent(-1)
	return func() {
		debug.SetGCPercent(pct)
		debug.SetMemoryLimit(limit)
	}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// buildPool builds a setup's pool outside Setup.Synthesize, which then
// finds it prebuilt and goes straight to lookup.
func buildPool(s *harness.Setup, cfg core.Config) (time.Duration, float64) {
	if cfg.ExtraSequences == nil {
		cfg.ExtraSequences = harness.ExtraSequences(s.Name)
	}
	runtime.GC()
	restore := batchGC()
	a0 := totalAlloc()
	t0 := time.Now()
	s.Synther = core.New(s.B, s.ISA, cfg)
	s.Synther.BuildPool()
	d := time.Since(t0)
	mb := float64(totalAlloc()-a0) / (1 << 20)
	restore()
	return d, mb
}

// stagedColdWarm is coldWarm split into layers. Lookup is
// Setup.Synthesize on a prebuilt pool minus the corpus extraction it
// repeats internally, so extract + pool + lookup adds up to a cold run,
// and replay + pool + extract + lookup to a warm one.
func stagedColdWarm(name string, cfg core.Config, journal string) (*synthLayers, error) {
	if err := os.Remove(journal); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	var out synthLayers
	s, _, _, err := loadSetup(name, false)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	harness.CorpusPatterns(name, 0)
	out.extract = time.Since(t0)

	solver.Shared.DetachJournal()
	solver.Shared.Reset()
	smt.Cex.Reset()
	if err := solver.Shared.AttachJournal(journal); err != nil {
		return nil, err
	}
	out.pool, out.poolAllocMB = buildPool(s, cfg)
	a0 := totalAlloc()
	t1 := time.Now()
	lib := s.Synthesize(cfg, 0)
	out.lookupCold = time.Since(t1) - out.extract
	out.lookupAllocMB = float64(totalAlloc()-a0) / (1 << 20)
	out.cold = s.Synther.Stats
	out.rules = lib.Len()
	out.artifact = isel.SaveLibraryFor(lib, s.ISA)
	out.setup = s

	solver.Shared.DetachJournal()
	solver.Shared.Reset()
	smt.Cex.Reset()
	s2, _, _, err := loadSetup(name, false)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	t2 := time.Now()
	if err := solver.Shared.AttachJournal(journal); err != nil {
		return nil, err
	}
	out.replay = time.Since(t2)
	out.poolWarm, _ = buildPool(s2, cfg)
	t3 := time.Now()
	lib2 := s2.Synthesize(cfg, 0)
	out.lookupWarm = time.Since(t3) - out.extract
	solver.Shared.DetachJournal()
	out.warm = s2.Synther.Stats
	if isel.SaveLibraryFor(lib2, s2.ISA) != out.artifact {
		return nil, fmt.Errorf("%s: staged warm artifact differs from staged cold", name)
	}
	return &out, nil
}

// journalPath is the per-target verdict journal inside the run's
// scratch directory.
func journalPath(dir, name string) string {
	return filepath.Join(dir, name+".journal")
}
