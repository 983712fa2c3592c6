package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"iselgen/internal/bv"
	"iselgen/internal/cost"
	"iselgen/internal/fuzz"
	"iselgen/internal/gmir"
	"iselgen/internal/isel"
	"iselgen/internal/service"
	"iselgen/internal/sim"
)

// vectorsPerProgram is how many input vectors each program is simulated
// on, in the daemon and in the references alike.
const vectorsPerProgram = 2

// program is one seeded fuzz program with its independent reference:
// the gMIR interpreter's result on the same vectors the daemon derives.
type program struct {
	text    string
	prog    *fuzz.Prog
	vectors [][]bv.BV
	want    []uint64
}

// makePrograms generates n programs from seed, unfiltered, and computes
// each one's interpreter reference on fuzz.VectorsFor(vecSeed, ...).
func makePrograms(seed uint64, n int, vecSeed uint64) ([]program, error) {
	gcfg := fuzz.DefaultGenConfig()
	out := make([]program, n)
	for i := range out {
		p := fuzz.Gen(bv.NewRNG(fuzz.SubSeed(seed, uint64(i))), gcfg)
		pr := program{text: p.Format(), prog: p, vectors: fuzz.VectorsFor(vecSeed, p, vectorsPerProgram)}
		f, err := p.Build()
		if err != nil {
			return nil, fmt.Errorf("program %d: build: %w", i, err)
		}
		for _, args := range pr.vectors {
			ip := &gmir.Interp{Mem: gmir.NewMemory()}
			ret, err := ip.Run(f, args...)
			if err != nil {
				return nil, fmt.Errorf("program %d: interp: %w", i, err)
			}
			pr.want = append(pr.want, sim.Adjust(ret, 64).Uint64())
		}
		out[i] = pr
	}
	return out, nil
}

// parseChecksum reads the SMT-LIB rendering of a returned value
// (#x... or #b...) as its low 64 bits.
func parseChecksum(s string) (uint64, error) {
	base := 0
	switch {
	case strings.HasPrefix(s, "#x"):
		base = 16
	case strings.HasPrefix(s, "#b"):
		base = 2
	default:
		return 0, fmt.Errorf("checksum %q: not #x or #b", s)
	}
	digits := s[2:]
	keep := 16
	if base == 2 {
		keep = 64
	}
	if len(digits) > keep {
		digits = digits[len(digits)-keep:]
	}
	return strconv.ParseUint(digits, base, 64)
}

// verify checks one program result against the interpreter reference.
// A fallback has nothing to verify; it is counted, not failed.
func (p *program) verify(r *service.ProgramResult) error {
	if r.Error != "" {
		return fmt.Errorf("program error: %s", r.Error)
	}
	if r.Fallback {
		return nil
	}
	if len(r.Checksums) != len(p.want) {
		return fmt.Errorf("%d checksums, want %d", len(r.Checksums), len(p.want))
	}
	for i, c := range r.Checksums {
		got, err := parseChecksum(c)
		if err != nil {
			return err
		}
		if got != p.want[i] {
			return fmt.Errorf("vector %d: got %#x, interpreter says %#x", i, got, p.want[i])
		}
	}
	return nil
}

// pipeline is the in-process twin of the daemon's per-request selection
// environment: one target, one backend per selector, one cost model.
type pipeline struct {
	target   string
	minWidth int
	model    *cost.Table
	greedy   *isel.Backend
	optimal  *isel.Backend // nil when the workload serves greedy only
	hand     *isel.Backend
	vecSeed  uint64
}

func (pl *pipeline) backend(selector string) *isel.Backend {
	if selector == "optimal" {
		return pl.optimal
	}
	return pl.greedy
}

// Serve stages, named as the per-layer metrics report them. Their order
// is the order progEnv.selectProgram runs them in.
const (
	stParse    = "fuzz.parse_us"
	stBuild    = "gmir.build_us"
	stLegalize = "gmir.legalize_us"
	stSelect   = "isel.select_us"
	stStatic   = "cost.static_us"
	stSimulate = "sim.simulate_us"
	stEncode   = "service.encode_us"
)

var serveStages = []string{stParse, stBuild, stLegalize, stSelect, stStatic, stSimulate, stEncode}

// probe is called between stages; plain replays pass nil.
type probe func(stage string)

// selectProgram replays, from outside the daemon, exactly the calls its
// progEnv.selectProgram makes for one program, in the same order. mark,
// when set, is called at the end of each stage.
func (pl *pipeline) selectProgram(idx int, text string, bk *isel.Backend, mark probe) (res service.ProgramResult) {
	if mark == nil {
		mark = func(string) {}
	}
	res.Index = idx
	defer func() {
		if r := recover(); r != nil {
			res = service.ProgramResult{Index: idx, Error: fmt.Sprintf("panic: %v", r)}
		}
	}()
	p, err := fuzz.ParseProg(text)
	mark(stParse)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	f, err := p.Build()
	mark(stBuild)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	if err := gmir.Legalize(f, pl.minWidth); err != nil {
		res.Error = fmt.Sprintf("legalize: %v", err)
		return res
	}
	isel.Prepare(f, pl.target)
	mark(stLegalize)
	mf, rep := bk.Select(f)
	mark(stSelect)
	res.Fallback = rep.Fallback
	res.FallbackReason = rep.FallbackReason
	if rep.Fallback {
		return res
	}
	res.RuleInsts = rep.RuleInsts
	res.HookInsts = rep.HookInsts
	res.StaticCost = cost.StaticOf(mf, pl.model).String()
	res.BinarySize = mf.BinarySize()
	mark(stStatic)
	for _, args := range fuzz.VectorsFor(pl.vecSeed, p, vectorsPerProgram) {
		m := &sim.Machine{Mem: gmir.NewMemory(), Model: pl.model}
		out, err := m.Run(mf, args)
		if err != nil {
			res.Error = fmt.Sprintf("sim: %v", err)
			return res
		}
		res.Cycles += out.Cycles
		res.Insts += out.Insts
		res.Checksums = append(res.Checksums, out.Ret.String())
	}
	mark(stSimulate)
	return res
}

// selectBatch is the in-process twin of one /v1/select/batch request:
// every program in order, then the response encode.
func (pl *pipeline) selectBatch(progs []*program, selector string, mark probe) ([]service.ProgramResult, error) {
	bk := pl.backend(selector)
	resp := service.BatchSelectResponse{Target: pl.target, Selector: selector, Programs: len(progs)}
	for i, p := range progs {
		r := pl.selectProgram(i, p.text, bk, mark)
		switch {
		case r.Error != "":
			resp.Failed++
		case r.Fallback:
			resp.Fallbacks++
		default:
			resp.Selected++
		}
		resp.Results = append(resp.Results, r)
	}
	if _, err := json.Marshal(resp); err != nil {
		return nil, err
	}
	if mark != nil {
		mark(stEncode)
	}
	return resp.Results, nil
}

// handCycles selects a program with the handwritten baseline and sums
// its simulated cycles over the program's vectors; ok is false when the
// baseline cannot select it either.
func (pl *pipeline) handCycles(p *program) (int64, bool, error) {
	f, err := p.prog.Build()
	if err != nil {
		return 0, false, err
	}
	if err := gmir.Legalize(f, pl.minWidth); err != nil {
		return 0, false, err
	}
	isel.Prepare(f, pl.target)
	mf, rep := pl.hand.Select(f)
	if rep.Fallback {
		return 0, false, nil
	}
	var cycles int64
	for i, args := range p.vectors {
		m := &sim.Machine{Mem: gmir.NewMemory(), Model: pl.model}
		out, err := m.Run(mf, args)
		if err != nil {
			return 0, false, fmt.Errorf("handwritten sim: %w", err)
		}
		if sim.Adjust(out.Ret, 64).Uint64() != p.want[i] {
			return 0, false, fmt.Errorf("handwritten result disagrees with the interpreter")
		}
		cycles += out.Cycles
	}
	return cycles, true, nil
}

// replayRounds is how many plain and staged passes a traced replay
// alternates.
const replayRounds = 3

// batchSpec is one batch of a traced replay.
type batchSpec struct {
	idx      []int
	progs    []*program
	selector string
	pl       *pipeline
}

// stagedReplay is the traced in-process replay of a list of batches.
type stagedReplay struct {
	programs int     // per pass
	plainUS  float64 // per program, no clock reads inside
	stagedUS float64 // per program, with a clock read at every stage
	stages   *stageTimes
	allocKB  map[string]float64 // per program
	selectNS map[string]float64 // per selector, summed
	selectN  map[string]int
	results  [][]service.ProgramResult
	insts    int64
	simNS    float64
}

// replayStaged replays the batches three times: plain, with a clock
// read at every stage boundary, and with a heap-allocation reading at
// every stage boundary. The first two give the tracing overhead.
func replayStaged(specs []batchSpec) (*stagedReplay, error) {
	out := &stagedReplay{
		stages:   newStageTimes(serveStages...),
		allocKB:  map[string]float64{},
		selectNS: map[string]float64{},
		selectN:  map[string]int{},
	}
	for _, sp := range specs {
		out.programs += len(sp.progs)
	}
	perProgUS := func(d time.Duration) float64 {
		return float64(d.Nanoseconds()) / 1e3 / float64(out.programs)
	}

	// Plain and staged passes alternate, so drift in the machine affects
	// both alike; each side reports its median pass.
	var plain, staged []float64
	for round := 0; round < replayRounds; round++ {
		t0 := time.Now()
		for _, sp := range specs {
			if _, err := sp.pl.selectBatch(sp.progs, sp.selector, nil); err != nil {
				return nil, err
			}
		}
		plain = append(plain, perProgUS(time.Since(t0)))

		out.results = out.results[:0]
		t1 := time.Now()
		for _, sp := range specs {
			last := time.Now()
			mark := func(stage string) {
				now := time.Now()
				ns := float64(now.Sub(last).Nanoseconds())
				out.stages.add(stage, ns)
				if stage == stSelect {
					out.selectNS[sp.selector] += ns
					out.selectN[sp.selector]++
				}
				last = now
			}
			res, err := sp.pl.selectBatch(sp.progs, sp.selector, mark)
			if err != nil {
				return nil, err
			}
			out.results = append(out.results, res)
		}
		staged = append(staged, perProgUS(time.Since(t1)))
	}
	out.plainUS, _ = median(plain)
	out.stagedUS, _ = median(staged)
	for _, res := range out.results {
		for _, r := range res {
			out.insts += r.Insts
		}
	}
	out.insts *= replayRounds
	out.simNS = out.stages.ns[stSimulate]

	var ms runtime.MemStats
	allocB := map[string]float64{}
	for _, sp := range specs {
		runtime.ReadMemStats(&ms)
		last := ms.TotalAlloc
		mark := func(stage string) {
			runtime.ReadMemStats(&ms)
			allocB[stage] += float64(ms.TotalAlloc - last)
			last = ms.TotalAlloc
		}
		if _, err := sp.pl.selectBatch(sp.progs, sp.selector, mark); err != nil {
			return nil, err
		}
	}
	for _, st := range serveStages {
		out.allocKB[st] = allocB[st] / 1024 / float64(out.programs)
	}
	return out, nil
}
