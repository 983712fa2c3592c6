package isa

import (
	"fmt"
	"slices"

	"iselgen/internal/bv"
	"iselgen/internal/gmir"
	"iselgen/internal/spec"
	"iselgen/internal/term"
)

// compile returns in's effects as one term.Program, compiling them on
// first use. Root i is effect i. The variable slots are fixed: the
// operands in declaration order, then the flags in spec.FlagNames order,
// then the PC — every variable spec.Symbolize puts into an effect.
func (in *Instruction) compile() *term.Program {
	if p := in.prog.Load(); p != nil {
		return p
	}
	var fixed []term.PVar
	for _, op := range in.Operands {
		fixed = append(fixed, term.PVar{Name: in.Name + "." + op.Name, Kind: varKind(op), Width: op.Width})
	}
	for _, f := range spec.FlagNames {
		fixed = append(fixed, term.PVar{Name: in.Name + "." + f, Kind: term.KindFlag, Width: 1})
	}
	fixed = append(fixed, term.PVar{Name: in.Name + ".pc", Kind: term.KindPC, Width: 64})
	roots := make([]*term.Term, len(in.Effects))
	for i, e := range in.Effects {
		roots[i] = e.T
	}
	p := term.Compile(fixed, roots...)
	// Concurrent first calls may each compile; the programs are
	// identical, so whichever is stored is correct.
	in.prog.Store(p)
	return p
}

// Frame is one executor's scratch for Step: the variable slots Step
// binds and the registers it evaluates into. Reuse one Frame across
// steps; never share one between goroutines.
type Frame struct {
	vals, regs []bv.BV
}

// InitialFlags returns the flag state before the first step: all clear.
func InitialFlags() [4]bv.BV { return [4]bv.BV{bv.Zero(1), bv.Zero(1), bv.Zero(1), bv.Zero(1)} }

// Adjust converts a register-file value to an operand width: the file
// behaves like physical 64-bit registers, so narrower reads truncate and
// wider reads zero-extend.
func Adjust(v bv.BV, w int) bv.BV {
	switch {
	case v.Width == 0:
		return bv.Zero(w) // never-written register
	case v.W() == w:
		return v
	case v.W() < w:
		return v.ZExt(w)
	default:
		return v.Trunc(w)
	}
}

// Step is the one executor of spec semantics: the MIR simulator and the
// byte-level emulator both run every instruction through it, and differ
// only in operand fetch, destination mapping and successor handling.
// It executes in once on the flags, the program counter pc, mem, and
// the operands fetch returns: a register operand's raw register-file
// value, which Step adjusts to the operand width, or an immediate, which
// must already have the operand width. Every effect reads the state from
// before the step. Loads read mem and stores write it, flag effects
// update flags, and each register result goes to write in effect order
// (k counts the register effects). Step returns the next PC: the PC
// effect's value, or pc+Size without one.
func (in *Instruction) Step(fr *Frame, flags *[4]bv.BV, pc uint64, mem *gmir.Memory,
	fetch func(i int, op *spec.Operand) bv.BV,
	write func(k int, e *spec.Effect, v bv.BV) error) (uint64, error) {
	p := in.compile()
	n := len(in.Operands)
	vals := slices.Grow(fr.vals[:0], n+len(flags)+1)[:n+len(flags)+1] // exactly the fixed slots
	regs := slices.Grow(fr.regs[:0], p.NumRegs())[:p.NumRegs()]
	fr.vals, fr.regs = vals, regs
	for i := range in.Operands {
		op := &in.Operands[i]
		v := fetch(i, op)
		if op.Kind != spec.OpImm {
			v = Adjust(v, op.Width)
		} else if v.W() != op.Width {
			return 0, fmt.Errorf("immediate %s is %d bits, operand is %d", op.Name, v.W(), op.Width)
		}
		vals[i] = v
	}
	copy(vals[n:], flags[:])
	vals[n+len(flags)] = bv.New(64, pc)
	p.Run(vals, regs, mem.Load)

	next := pc + uint64(in.Size)
	k := 0
	for i := range in.Effects {
		e, v := &in.Effects[i], p.Root(regs, i)
		switch e.Kind {
		case spec.EffReg, spec.EffWB:
			if err := write(k, e, v); err != nil {
				return 0, err
			}
			k++
		case spec.EffFlag:
			flags[slices.Index(spec.FlagNames, e.Dest)] = v
		case spec.EffMem:
			mem.Store(p.Arg(regs, i, 0).Uint64(), p.Arg(regs, i, 1), int(e.T.Aux0))
		case spec.EffPC:
			next = v.Uint64()
		}
	}
	return next, nil
}
