// Package sim executes machine IR by evaluating each instruction's
// formal effect terms — the same terms the synthesis consumed — against
// a concrete register file, flag state, and memory. It is the
// reproduction's stand-in for the paper's hardware evaluation platforms
// (Apple M2, Milk-V SG2042): simulated cycle counts (per-instruction
// latencies from the ISA metadata) play the role of measured runtime,
// and static code bytes the role of binary size (§VIII-C).
package sim

import (
	"fmt"

	"iselgen/internal/bv"
	"iselgen/internal/cost"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/mir"
	"iselgen/internal/spec"
)

// Result reports one execution.
type Result struct {
	Ret    bv.BV
	HasRet bool
	Cycles int64
	Insts  int64
	// Flags is the final condition-flag state in spec.FlagNames order,
	// exposed so differential harnesses can assert run-to-run
	// determinism of the effect evaluation, not just the returned value.
	Flags [4]bv.BV
}

// Machine executes machine functions.
type Machine struct {
	Mem *gmir.Memory
	// MaxSteps bounds execution (default 200M instructions).
	MaxSteps int64
	// Model overrides per-instruction cycle charging. Nil keeps the ISA
	// metadata latencies; the target-derived table (cost.FromTarget)
	// reproduces them exactly, so dynamic cost under a custom table stays
	// comparable with the static model the selectors optimize.
	Model *cost.Table
}

// Adjust converts a register-file value to an operand width: the file
// behaves like physical 64-bit registers, so narrower reads truncate and
// wider reads zero-extend.
func Adjust(v bv.BV, w int) bv.BV { return isa.Adjust(v, w) }

// pcBase is the nominal PC every instruction executes at: MIR has no
// addresses, so a branch is taken exactly when its PC effect leaves
// pcBase+size.
const pcBase = 0x100000

// Run executes f with the given arguments.
func (m *Machine) Run(f *mir.Func, args []bv.BV) (Result, error) {
	if m.Mem == nil {
		m.Mem = gmir.NewMemory()
	}
	maxSteps := m.MaxSteps
	if maxSteps == 0 {
		maxSteps = 200_000_000
	}
	if len(args) != len(f.Params) {
		return Result{}, fmt.Errorf("sim: %s takes %d args, got %d", f.Name, len(f.Params), len(args))
	}
	regs := make([]bv.BV, f.NumRegs)
	for i, p := range f.Params {
		regs[p] = args[i]
	}
	res := Result{Flags: isa.InitialFlags()}
	var fr isa.Frame

	layout := map[int]int{} // block ID -> layout index
	for i, b := range f.Blocks {
		layout[b.ID] = i
	}

	bi := 0
	for bi < len(f.Blocks) {
		blk := f.Blocks[bi]
		taken := -1
		for _, in := range blk.Insts {
			if res.Insts++; res.Insts > maxSteps {
				return res, fmt.Errorf("sim: %s: step limit exceeded", f.Name)
			}
			if m.Model != nil {
				res.Cycles += m.Model.InstVector(in).Latency
			} else {
				res.Cycles += int64(in.Latency())
			}
			switch {
			case in.Pseudo == mir.PCopy:
				regs[in.Dsts[0]] = regs[in.Args[0].Reg]
				continue
			case in.Pseudo == mir.PRet:
				if len(in.Args) == 1 {
					res.Ret = regs[in.Args[0].Reg]
					res.HasRet = true
				}
				return res, nil
			}
			t, err := m.step(in, regs, &res.Flags, &fr)
			if err != nil {
				return res, fmt.Errorf("sim: %s: %s: %w", f.Name, in, err)
			}
			if t {
				taken = in.Succs[0]
				break
			}
		}
		if taken >= 0 {
			ni, ok := layout[taken]
			if !ok {
				return res, fmt.Errorf("sim: %s: branch to unknown bb%d", f.Name, taken)
			}
			bi = ni
		} else {
			bi++
		}
	}
	return res, fmt.Errorf("sim: %s: fell off the end", f.Name)
}

// step executes one ISA instruction through the step core, with the
// branch label bound to 0; reports whether a branch was taken.
func (m *Machine) step(in *mir.Inst, regs []bv.BV, flags *[4]bv.BV, fr *isa.Frame) (bool, error) {
	meta := in.Meta
	if meta == nil {
		return false, fmt.Errorf("unexpected pseudo")
	}
	if len(in.Args) != len(meta.Operands) {
		return false, fmt.Errorf("operand count %d, want %d", len(in.Args), len(meta.Operands))
	}
	label := len(in.Succs) > 0 // a branch's first immediate is its label
	next, err := meta.Step(fr, flags, pcBase, m.Mem, func(i int, op *spec.Operand) bv.BV {
		switch a := in.Args[i]; {
		case !a.IsImm:
			return regs[a.Reg]
		case label && op.Kind == spec.OpImm:
			label = false
			return bv.Zero(op.Width)
		default:
			return Adjust(a.Imm, op.Width)
		}
	}, func(k int, e *spec.Effect, v bv.BV) error {
		if k >= len(in.Dsts) {
			return fmt.Errorf("missing destination register for %s effect", e.Kind)
		}
		regs[in.Dsts[k]] = v
		return nil
	})
	if err != nil || next == pcBase+uint64(meta.Size) {
		return false, err
	}
	if len(in.Succs) == 0 {
		return false, fmt.Errorf("PC effect without successor")
	}
	return true, nil
}
