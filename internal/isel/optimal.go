// Optimal (BURS-style) instruction selection: a bottom-up dynamic
// program over the gMIR def-use forest that picks, per candidate root,
// the rule minimizing total model cost — rule cost plus the cost of
// computing every register leaf the pattern leaves uncovered. This is
// the classic optimal tree-tiling contrast to the greedy
// largest-pattern-first matcher in select.go (paper §II-B): greedy can
// lose when a big pattern's leaves are expensive to produce while two
// small tiles share cheaper frontiers.
//
// The planner reuses the greedy machinery wholesale — same pattern
// matcher, same rule chains, same hooks — so the two selectors differ
// only in which rule each root commits to. Emission with a plan runs
// the normal reverse-order pass; tryRules consults the plan before the
// largest-first chain, and anything the plan does not cover (bool
// roots, hook lowerings) behaves exactly as in the greedy selector.
package isel

import (
	"iselgen/internal/cost"
	"iselgen/internal/gmir"
	"iselgen/internal/mir"
	"iselgen/internal/rules"
)

// SelectorKind picks the selection engine a Backend runs.
type SelectorKind int

const (
	// SelGreedy is the largest-pattern-first matcher (GlobalISel analog).
	SelGreedy SelectorKind = iota
	// SelOptimal is the bottom-up DP tiler. It never does worse than
	// greedy under the backend's cost model: Select runs both emissions
	// and keeps the statically cheaper one.
	SelOptimal
)

func (k SelectorKind) String() string {
	if k == SelOptimal {
		return "optimal"
	}
	return "greedy"
}

// planChoice is the DP decision at one candidate root.
type planChoice struct {
	rule *rules.Rule
	vec  cost.Vector // dp value: rule cost + uncovered frontier cost
}

// OptimalVariant derives an optimal-selector backend from an existing
// one, sharing its library and hooks. A nil model defaults to the
// target-derived table, so static cost mirrors sim cycle accounting.
func OptimalVariant(b *Backend, model *cost.Table) *Backend {
	v := *b
	v.Selector = SelOptimal
	if model == nil {
		model = cost.FromTarget(b.ISA)
	}
	v.Model = model
	return &v
}

// effModel returns the cost table static comparisons use.
func (b *Backend) effModel() *cost.Table {
	if b.Model != nil {
		return b.Model
	}
	return cost.FromTarget(b.ISA)
}

// selectOptimal runs the DP-planned emission and the greedy emission
// and returns whichever is statically cheaper under the model. The
// comparison is the hard floor behind the "optimal ≤ greedy" claim:
// even where the plan's frontier estimates are off (constant reuse,
// hook lowerings), the result can only improve on greedy.
func (b *Backend) selectOptimal(f *gmir.Function) (*mir.Func, *Report) {
	model := b.effModel()
	gmir.SplitCriticalEdges(f) // idempotent; the plan must see final CFG shape
	plan := b.buildPlan(f, model)
	outP, repP := b.selectWithPlan(f, plan, b.Obs)
	// The greedy pass here exists only as the cost-comparison baseline;
	// it runs with observability silenced so one Select call does not
	// record greedy-engine spans and decisions nobody asked for.
	outG, repG := b.selectWithPlan(f, nil, nil)
	switch {
	case outP == nil && outG == nil:
		repG.Selector = "optimal"
		return nil, repG
	case outP == nil:
		repG.Selector = "optimal"
		return outG, repG
	case outG == nil:
		repP.Selector = "optimal"
		return outP, repP
	}
	if cost.StaticOf(outG, model).Less(cost.StaticOf(outP, model)) {
		repG.Selector = "optimal"
		return outG, repG
	}
	repP.Selector = "optimal"
	return outP, repP
}

// buildPlan computes the bottom-up DP over every block in program
// order (defs precede uses in SSA, so frontier costs are ready when a
// consumer is planned). dp[in] is the model cost of producing in's
// value as a selection root; multi-use and cross-choice-invariant
// values (params, hook-lowered ops, shared constants) contribute zero
// because they are computed once no matter which rule wins.
func (b *Backend) buildPlan(f *gmir.Function, model *cost.Table) map[*gmir.Inst]*planChoice {
	c := &Ctx{
		B: b, F: f,
		Out:    &mir.Func{Name: f.Name + ".plan"},
		def:    map[gmir.Value]*gmir.Inst{},
		uses:   map[gmir.Value]int{},
		vreg:   map[gmir.Value]mir.Reg{},
		cover:  map[*gmir.Inst]bool{},
		pos:    map[*gmir.Inst]instPos{},
		report: &Report{},
	}
	for _, blk := range f.Blocks {
		for idx, in := range blk.Insts {
			c.pos[in] = instPos{blk: blk, idx: idx}
			if in.Dst >= 0 {
				c.def[in.Dst] = in
			}
			for _, a := range in.Args {
				c.uses[a]++
			}
		}
	}
	plan := map[*gmir.Inst]*planChoice{}
	constMemo := map[string]cost.Vector{}
	for _, blk := range f.Blocks {
		for _, in := range blk.Insts {
			if !in.Op.IsSelectable() || in.Op == gmir.GPhi || in.Op == gmir.GConstant ||
				in.Op == gmir.GCopy {
				continue
			}
			c.curRoot = in // loadFoldSafe anchors on the root position
			if pc := c.planFor(in, model, plan, constMemo); pc != nil {
				plan[in] = pc
			}
		}
	}
	return plan
}

// planFor evaluates every candidate rule at root `in` and keeps the
// cheapest total: rule sequence cost plus, for each register leaf of
// the matched pattern, the DP cost of its single-use def (zero for
// params, multi-use values, and immediate-folded constants).
func (c *Ctx) planFor(in *gmir.Inst, model *cost.Table,
	plan map[*gmir.Inst]*planChoice, constMemo map[string]cost.Vector) *planChoice {
	key := rules.RootKey{Op: int(in.Op), Bits: in.Ty.Bits, Pred: int(in.Pred), MemBits: in.MemBits}
	if in.Op == gmir.GStore {
		key.Bits = 0
	}
	var best *planChoice
	for _, r := range c.B.Lib.Candidates(key) {
		bind, okm := c.matchPattern(r, in)
		if okm != matchOK {
			continue
		}
		vec := model.SeqVector(r.Seq)
		for li, leaf := range r.Leaves() {
			if !leaf.LeafReg {
				continue // immediate-folded: encoded into the instruction
			}
			vo := bind.leafVals[li]
			if vo.def == nil || !c.SingleUse(vo.val) {
				continue // param or shared value: cost is choice-invariant
			}
			switch {
			case vo.def.Op == gmir.GConstant:
				vec = vec.Add(c.trialConstCost(vo.def, model, constMemo))
			default:
				if d := plan[vo.def]; d != nil {
					vec = vec.Add(d.vec)
				}
			}
		}
		if best == nil || vec.Less(best.vec) {
			best = &planChoice{rule: r, vec: vec}
		}
	}
	return best
}

// trialConstCost runs the MatConst hook against a scratch emission
// buffer to price a single-use constant that a rule keeps in a
// register (instead of folding as an immediate). Memoized per constant
// value; hooks only touch c.cur and the register counter, both
// restored/harmless.
func (c *Ctx) trialConstCost(def *gmir.Inst, model *cost.Table, memo map[string]cost.Vector) cost.Vector {
	k := def.Imm.String()
	if v, ok := memo[k]; ok {
		return v
	}
	var vec cost.Vector
	if c.B.Hooks.MatConst != nil {
		saved := c.cur
		c.cur = nil
		if _, ok := c.B.Hooks.MatConst(c, def.Imm); ok {
			for _, m := range c.cur {
				vec = vec.Add(model.InstVector(m))
			}
		}
		c.cur = saved
	}
	memo[k] = vec
	return vec
}
