package enc

import (
	"fmt"

	"iselgen/internal/bv"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/spec"
)

// Emulator executes machine code at the byte level: fetch, decode
// through the trie, fill the decoded fields into the instruction's
// operand slots, and run the step core (isa.Instruction.Step) over the
// very effect terms the synthesis consumed. Where the MIR simulator
// trusts the instruction stream, the emulator trusts only the bytes —
// which is what makes it the far side of the round-trip oracle.
type Emulator struct {
	Codec *Codec
	Mem   *gmir.Memory
	// MaxSteps bounds execution (default 200M instructions).
	MaxSteps int64
}

// EmuResult reports one machine-code execution.
type EmuResult struct {
	Ret    bv.BV
	HasRet bool
	Insts  int64
	Flags  [4]bv.BV // spec.FlagNames order
}

// Run executes an image with the given arguments until the PC reaches
// the end of the code.
func (e *Emulator) Run(img *Image, args []bv.BV) (EmuResult, error) {
	if e.Mem == nil {
		e.Mem = gmir.NewMemory()
	}
	maxSteps := e.MaxSteps
	if maxSteps == 0 {
		maxSteps = 200_000_000
	}
	if len(args) != len(img.ParamRegs) {
		return EmuResult{}, fmt.Errorf("enc: image takes %d args, got %d", len(img.ParamRegs), len(args))
	}
	regs := make([]bv.BV, 1<<uint(e.Codec.Target.RegNumBits))
	for i, p := range img.ParamRegs {
		regs[p] = args[i]
	}
	res := EmuResult{Flags: isa.InitialFlags()}
	var fr isa.Frame

	pc := img.Base
	end := img.End()
	for pc != end {
		if pc < img.Base || pc > end {
			return res, fmt.Errorf("enc: pc %#x outside image [%#x,%#x)", pc, img.Base, end)
		}
		if res.Insts++; res.Insts > maxSteps {
			return res, fmt.Errorf("enc: step limit exceeded at pc %#x", pc)
		}
		ic, ops, _, err := e.Codec.DecodeAt(img.Code, int(pc-img.Base))
		if err != nil {
			return res, fmt.Errorf("enc: fetch at pc %#x: %w", pc, err)
		}
		nextPC, err := e.step(ic.Inst, ops, regs, &res.Flags, &fr, pc)
		if err != nil {
			return res, fmt.Errorf("enc: pc %#x (%s): %w", pc, ic.Inst.Name, err)
		}
		pc = nextPC
	}
	if img.RetReg >= 0 {
		res.Ret = regs[img.RetReg]
		res.HasRet = true
	}
	return res, nil
}

// step executes one decoded instruction through the step core and
// returns the next PC.
func (e *Emulator) step(in *isa.Instruction, ops Operands, regs []bv.BV, flags *[4]bv.BV, fr *isa.Frame, pc uint64) (uint64, error) {
	return in.Step(fr, flags, pc, e.Mem, func(_ int, op *spec.Operand) bv.BV {
		if op.Kind == spec.OpImm {
			return ops.Imms[op.Name]
		}
		return regs[ops.Regs[op.Name]]
	}, func(_ int, eff *spec.Effect, v bv.BV) error {
		dst, ok := ops.Rd, true
		switch {
		case eff.Kind == spec.EffWB:
			dst, ok = ops.Regs[eff.Dest]
		case eff.Dest == "rd2":
			dst = ops.Rd2
		}
		if !ok || dst < 0 {
			return fmt.Errorf("no register field for %s", eff.Dest)
		}
		regs[dst] = v
		return nil
	})
}
