package service

import (
	"fmt"

	"iselgen/internal/bv"
	"iselgen/internal/cost"
	"iselgen/internal/fuzz"
	"iselgen/internal/gmir"
	"iselgen/internal/isel"
	"iselgen/internal/mir"
	"iselgen/internal/sim"
)

// maxBatchPrograms caps one batch request; past it the request is a 400
// (the client splits — the point of batching is amortizing the library
// acquisition, which saturates well before this).
const maxBatchPrograms = 1024

// maxProgramVectors caps the simulation vectors per program.
const maxProgramVectors = 8

// progEnv is the per-request selection environment a batch shares: one
// cache entry (the amortized library acquisition), one backend, one
// cost model. Programs run through it sequentially — the same reuse
// discipline the fuzz driver applies.
type progEnv struct {
	target   string
	backend  *isel.Backend
	model    *cost.Table
	minWidth int
	seed     uint64
	vectors  int
	emit     EmitMode
}

// ProgramResult is one program's outcome inside a batch (and the
// program-mode payload of /v1/select). It deliberately carries no
// timing: every field is a pure function of (library fingerprint,
// program text, vector seed), which is what makes responses
// byte-identical across replicas.
type ProgramResult struct {
	Index          int      `json:"index"`
	Error          string   `json:"error,omitempty"`
	Fallback       bool     `json:"fallback,omitempty"`
	FallbackReason string   `json:"fallback_reason,omitempty"`
	RuleInsts      int      `json:"rule_insts,omitempty"`
	HookInsts      int      `json:"hook_insts,omitempty"`
	StaticCost     string   `json:"static_cost,omitempty"`
	Cycles         int64    `json:"cycles,omitempty"`
	Insts          int64    `json:"insts,omitempty"`
	BinarySize     int      `json:"binary_size,omitempty"`
	Checksums      []string `json:"checksums,omitempty"`
	MIR            string   `json:"mir,omitempty"`
}

// newProgEnv builds the shared environment around an acquired cache
// entry. minWidth mirrors the fuzz pipeline's legalization floor: RV64
// backends are 64-bit only.
func (sv *Server) newProgEnv(q libQuery, e *Entry, seed uint64, vectors int, emit EmitMode) *progEnv {
	model := q.tc.cfg.CostModel
	bk := q.def.backend(e.Target, e.Lib)
	bk.Obs = sv.obsv
	if q.tc.cfg.Selector == "optimal" {
		bk = isel.OptimalVariant(bk, model)
	}
	minW := 32
	if q.def.name == "riscv" {
		minW = 64
	}
	if seed == 0 {
		seed = 1
	}
	return &progEnv{
		target:   q.def.name,
		backend:  bk,
		model:    model,
		minWidth: minW,
		seed:     seed,
		vectors:  min(max(vectors, 1), maxProgramVectors),
		emit:     emit,
	}
}

// selectProgram lowers one corpus-text program through the shared
// environment: parse, legalize, then lower on the deterministic vectors.
// Failures are per-program data, never HTTP errors — one malformed
// program must not void the rest of its batch. The selected function is
// returned for /v1/select's emit=bytes.
func (env *progEnv) selectProgram(idx int, text string) (res ProgramResult, mf *mir.Func) {
	defer func() {
		if r := recover(); r != nil {
			res, mf = ProgramResult{Index: idx, Error: fmt.Sprintf("panic: %v", r)}, nil
		}
	}()
	p, err := fuzz.ParseProg(text)
	if err != nil {
		return ProgramResult{Index: idx, Error: err.Error()}, nil
	}
	f, err := p.Build()
	if err != nil {
		return ProgramResult{Index: idx, Error: err.Error()}, nil
	}
	if err := gmir.Legalize(f, env.minWidth); err != nil {
		return ProgramResult{Index: idx, Error: fmt.Sprintf("legalize: %v", err)}, nil
	}
	res, mf, _ = env.lower(idx, f, fuzz.VectorsFor(env.seed, p, env.vectors), nil)
	return res, mf
}

// lower is the per-program step every select path shares: select f and,
// unless selection fell back (mf is then nil), price the result under
// the cost model and simulate it once per input vector, each run on
// fresh memory seeded by initMem (nil leaves it zeroed).
func (env *progEnv) lower(idx int, f *gmir.Function, inputs [][]bv.BV, initMem func(*gmir.Memory)) (res ProgramResult, mf *mir.Func, rep *isel.Report) {
	res.Index = idx
	isel.Prepare(f, env.target)
	mf, rep = env.backend.Select(f)
	res.Fallback = rep.Fallback
	res.FallbackReason = rep.FallbackReason
	if rep.Fallback {
		return res, nil, rep
	}
	res.RuleInsts = rep.RuleInsts
	res.HookInsts = rep.HookInsts
	res.StaticCost = cost.StaticOf(mf, env.model).String()
	res.BinarySize = mf.BinarySize()
	for _, args := range inputs {
		mem := gmir.NewMemory()
		if initMem != nil {
			initMem(mem)
		}
		m := &sim.Machine{Mem: mem, Model: env.model}
		out, err := m.Run(mf, args)
		if err != nil {
			res.Error = fmt.Sprintf("sim: %v", err)
			return res, mf, rep
		}
		res.Cycles += out.Cycles
		res.Insts += out.Insts
		res.Checksums = append(res.Checksums, out.Ret.String())
	}
	if env.emit == "mir" {
		res.MIR = mf.String()
	}
	return res, mf, rep
}
