package enc

import (
	"fmt"

	"iselgen/internal/bv"
	"iselgen/internal/isa"
	"iselgen/internal/mir"
	"iselgen/internal/spec"
	"iselgen/internal/term"
)

// Base is the default load address for assembled images (the same
// address the MIR simulator binds as the nominal PC).
const Base = 0x100000

// Unit is one encoded instruction of an image.
type Unit struct {
	Addr  uint64
	IC    *InstCodec
	Ops   Operands
	Bytes []byte
}

// Image is an assembled machine-code function.
type Image struct {
	Code []byte
	Base uint64
	// RetReg is the machine register holding the return value when
	// execution reaches the end of the code (-1 when the function
	// returns nothing); ParamRegs receive the arguments.
	RetReg     int
	ParamRegs  []int
	BlockAddrs map[int]uint64
	Units      []Unit
}

// End returns the halt address: one past the last instruction.
func (img *Image) End() uint64 { return img.Base + uint64(len(img.Code)) }

// Assembler encodes selected machine IR into an Image. MIR pseudos are
// expanded with instructions discovered from the spec itself: PCopy
// becomes the ISA's register move (the unique instruction whose sole
// effect is rd = operand), and PRet becomes a move into a dedicated
// return register followed by a PC-relative jump to the end of the
// image (the unique instruction whose sole effect sets the PC from an
// immediate), omitted when the return already falls off the end.
type Assembler struct {
	Codec *Codec
	Base  uint64

	copyIC *InstCodec // nil when the ISA has no plain register move
	copyOp string
	brIC   *InstCodec // nil when the ISA has no plain immediate jump
	brOp   string
	pcRef  map[*isa.Instruction]bool
}

// NewAssembler builds an assembler over a codec, discovering the copy
// and jump expansions from the instruction semantics.
func NewAssembler(c *Codec) *Assembler {
	a := &Assembler{Codec: c, Base: Base, pcRef: map[*isa.Instruction]bool{}}
	for _, ic := range c.Insts {
		in := ic.Inst
		if len(in.Effects) != 1 || len(in.Operands) != 1 {
			continue
		}
		e, op := in.Effects[0], in.Operands[0]
		switch {
		case e.Kind == spec.EffReg && e.Dest == "rd" && op.Kind == spec.OpReg &&
			e.T.Op == term.Var && e.T.Name == in.Name+"."+op.Name:
			// Prefer the widest move: the register file keeps full-width
			// values, and a full-width copy preserves them all.
			if a.copyIC == nil || op.Width > a.copyIC.Inst.Operands[0].Width {
				a.copyIC, a.copyOp = ic, op.Name
			}
		case e.Kind == spec.EffPC && op.Kind == spec.OpImm:
			if a.brIC == nil || op.Width > a.brIC.Inst.Operands[0].Width {
				a.brIC, a.brOp = ic, op.Name
			}
		}
	}
	return a
}

// refsPC reports whether any non-PC effect of the instruction reads the
// program counter (e.g. AUIPC, ADR, and linking jumps). Such semantics
// cannot be reproduced by the MIR simulator, which pins a nominal PC,
// so the assembler rejects them and the oracle skips.
func (a *Assembler) refsPC(in *isa.Instruction) bool {
	if v, ok := a.pcRef[in]; ok {
		return v
	}
	ref := false
	for _, e := range in.Effects {
		if e.Kind == spec.EffPC {
			continue
		}
		for _, v := range e.T.Vars() {
			if v.Kind == term.KindPC {
				ref = true
			}
		}
	}
	a.pcRef[in] = ref
	return ref
}

// refsVar reports whether the term references the named variable.
func refsVar(t *term.Term, name string) bool {
	for _, v := range t.Vars() {
		if v.Name == name {
			return true
		}
	}
	return false
}

// SolveDisp computes the immediate that makes the instruction's PC
// effect, evaluated at address addr, land on target. The taken-branch
// subterm is isolated by walking Ite nodes toward the arm referencing
// the label operand; it must then be a function of the PC and the label
// alone. The function is affine over the in-range window (scale from
// two probe evaluations), and the solution is verified by a final
// evaluation — which also rejects out-of-range displacements that the
// modular arithmetic would otherwise wrap.
func SolveDisp(ic *InstCodec, labelOp *spec.Operand, addr, target uint64) (bv.BV, error) {
	in := ic.Inst
	var pcT *term.Term
	for _, e := range in.Effects {
		if e.Kind == spec.EffPC {
			pcT = e.T
		}
	}
	if pcT == nil {
		return bv.BV{}, fmt.Errorf("enc: %s has no PC effect", in.Name)
	}
	labelVar := in.Name + "." + labelOp.Name
	pcVar := in.Name + ".pc"
	t := pcT
	for t.Op == term.Ite {
		inThen, inElse := refsVar(t.Args[1], labelVar), refsVar(t.Args[2], labelVar)
		switch {
		case inThen && !inElse:
			t = t.Args[1]
		case inElse && !inThen:
			t = t.Args[2]
		default:
			return bv.BV{}, fmt.Errorf("enc: %s: cannot isolate the taken-branch target", in.Name)
		}
	}
	for _, v := range t.Vars() {
		if v.Name != labelVar && v.Name != pcVar {
			return bv.BV{}, fmt.Errorf("enc: %s: branch target depends on %s, not just pc and %s",
				in.Name, v.Name, labelOp.Name)
		}
	}
	w := labelOp.Width
	env := term.NewEnv()
	env.Bind(pcVar, bv.New(64, addr))
	env.Bind(labelVar, bv.Zero(w))
	f0 := t.Eval(env)
	env.Bind(labelVar, bv.New(w, 1))
	f1 := t.Eval(env)
	scale := int64(f1.Lo - f0.Lo)
	if scale == 0 {
		return bv.BV{}, fmt.Errorf("enc: %s: branch target ignores %s", in.Name, labelOp.Name)
	}
	delta := int64(target - f0.Lo)
	if delta%scale != 0 {
		return bv.BV{}, fmt.Errorf("enc: %s: target %#x is not %d-byte aligned from %#x", in.Name, target, scale, addr)
	}
	imm := bv.NewInt(w, delta/scale)
	env.Bind(labelVar, imm)
	if got := t.Eval(env); got.Lo != target {
		return bv.BV{}, fmt.Errorf("enc: %s: branch to %#x out of range from %#x", in.Name, target, addr)
	}
	return imm, nil
}

// planned is one pre-layout unit.
type planned struct {
	kind     int // 0 normal, 1 copy, 2 jump-to-end
	in       *mir.Inst
	ic       *InstCodec
	dst, src int // copy
	addr     uint64
}

// Assemble encodes a selected function. Virtual registers map to
// machine register numbers identically while they fit; functions
// naming more registers than the encoding's register-number width
// admits are first compacted by the renaming allocator (AllocateRegs),
// and rejected only when their live pressure genuinely exceeds the
// machine's file.
func (a *Assembler) Assemble(f *mir.Func) (*Image, error) {
	c := a.Codec
	regLimit := 1 << uint(c.Target.RegNumBits)
	if c.Target.RegNumBits == 0 {
		return nil, fmt.Errorf("enc: target %s encodes no register numbers", c.Target.Name)
	}

	hasRetVal := false
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if in.Pseudo == mir.PRet && len(in.Args) == 1 {
				hasRetVal = true
			}
		}
	}
	need := f.NumRegs
	if hasRetVal {
		need++
	}
	if need > regLimit {
		// Reserve the top register number for the return value so the
		// allocator never hands it out.
		budget := regLimit
		if hasRetVal {
			budget--
		}
		nf, err := AllocateRegs(f, budget)
		if err != nil {
			return nil, err
		}
		f = nf
	}
	retReg := -1
	if hasRetVal {
		retReg = f.NumRegs
	}

	// Plan units and lay out addresses (sizes are known up front).
	var plan []planned
	blockAddrs := map[int]uint64{}
	addr := a.Base
	put := func(p planned) {
		p.addr = addr
		addr += uint64(p.ic.Size)
		plan = append(plan, p)
	}
	for bi, b := range f.Blocks {
		blockAddrs[b.ID] = addr
		for ii, in := range b.Insts {
			last := bi == len(f.Blocks)-1 && ii == len(b.Insts)-1
			switch {
			case in.Pseudo == mir.PCopy:
				if a.copyIC == nil {
					return nil, fmt.Errorf("enc: %s has no register-move instruction to expand COPY", c.Target.Name)
				}
				put(planned{kind: 1, ic: a.copyIC, dst: int(in.Dsts[0]), src: int(in.Args[0].Reg)})
			case in.Pseudo == mir.PRet:
				if len(in.Args) == 1 {
					if a.copyIC == nil {
						return nil, fmt.Errorf("enc: %s has no register-move instruction to expand RET", c.Target.Name)
					}
					put(planned{kind: 1, ic: a.copyIC, dst: retReg, src: int(in.Args[0].Reg)})
				}
				if !last {
					if a.brIC == nil {
						return nil, fmt.Errorf("enc: %s has no immediate jump to expand mid-function RET", c.Target.Name)
					}
					put(planned{kind: 2, ic: a.brIC})
				}
			default:
				ic := c.ByName[in.Meta.Name]
				if ic == nil {
					return nil, fmt.Errorf("enc: no encoding for %s", in.Meta.Name)
				}
				if a.refsPC(in.Meta) {
					return nil, fmt.Errorf("enc: %s reads the PC outside its PC effect; the simulator's nominal PC cannot be reproduced", in.Meta.Name)
				}
				if len(in.Succs) > 0 && ii != len(b.Insts)-1 {
					return nil, fmt.Errorf("enc: %s: branch %s is not the block terminator", f.Name, in.Meta.Name)
				}
				put(planned{kind: 0, ic: ic, in: in})
			}
		}
	}
	end := addr

	img := &Image{Base: a.Base, RetReg: retReg, BlockAddrs: blockAddrs}
	for _, p := range f.Params {
		img.ParamRegs = append(img.ParamRegs, int(p))
	}
	for _, p := range plan {
		var ops Operands
		var err error
		switch p.kind {
		case 1:
			ops = Operands{Rd: p.dst, Rd2: -1, Regs: map[string]int{a.copyOp: p.src}}
		case 2:
			imm, derr := SolveDisp(p.ic, &p.ic.Inst.Operands[0], p.addr, end)
			if derr != nil {
				return nil, derr
			}
			ops = Operands{Rd: -1, Rd2: -1, Imms: map[string]bv.BV{a.brOp: imm}}
		default:
			ops, err = a.instOperands(p.in, p.ic, p.addr, blockAddrs)
			if err != nil {
				return nil, err
			}
		}
		bytes, err := p.ic.Encode(ops)
		if err != nil {
			return nil, err
		}
		img.Units = append(img.Units, Unit{Addr: p.addr, IC: p.ic, Ops: ops, Bytes: bytes})
		img.Code = append(img.Code, bytes...)
	}
	return img, nil
}

// instOperands maps one MIR instruction's registers and immediates to
// encoding operands, solving the branch displacement when the
// instruction carries a successor.
func (a *Assembler) instOperands(in *mir.Inst, ic *InstCodec, addr uint64, blockAddrs map[int]uint64) (Operands, error) {
	meta := in.Meta
	if len(in.Args) != len(meta.Operands) {
		return Operands{}, fmt.Errorf("enc: %s: %d args for %d operands", meta.Name, len(in.Args), len(meta.Operands))
	}
	ops := Operands{Rd: -1, Rd2: -1, Regs: map[string]int{}, Imms: map[string]bv.BV{}}
	// Destination registers follow the simulator's convention: Dsts in
	// effect order, primary results first. A machine write-back always
	// targets the operand's own register, so MIR that renames the
	// write-back destination cannot be encoded faithfully.
	dstIdx := 0
	for _, e := range meta.Effects {
		switch e.Kind {
		case spec.EffReg:
			if dstIdx >= len(in.Dsts) {
				return Operands{}, fmt.Errorf("enc: %s: missing destination register", meta.Name)
			}
			if e.Dest == "rd2" {
				ops.Rd2 = int(in.Dsts[dstIdx])
			} else {
				ops.Rd = int(in.Dsts[dstIdx])
			}
			dstIdx++
		case spec.EffWB:
			if dstIdx >= len(in.Dsts) {
				return Operands{}, fmt.Errorf("enc: %s: missing write-back register", meta.Name)
			}
			wb := int(in.Dsts[dstIdx])
			dstIdx++
			found := false
			for i, op := range meta.Operands {
				if op.Name == e.Dest {
					found = true
					if in.Args[i].IsImm || int(in.Args[i].Reg) != wb {
						return Operands{}, fmt.Errorf("enc: %s: write-back result %%%d is not the %s operand register",
							meta.Name, wb, e.Dest)
					}
				}
			}
			if !found {
				return Operands{}, fmt.Errorf("enc: %s: write-back to unknown operand %s", meta.Name, e.Dest)
			}
		}
	}
	labelIdx := -1
	if len(in.Succs) > 0 {
		for i, op := range meta.Operands {
			if op.Kind == spec.OpImm && in.Args[i].IsImm {
				labelIdx = i
				break
			}
		}
		if labelIdx < 0 {
			return Operands{}, fmt.Errorf("enc: %s: branch without label immediate", meta.Name)
		}
	}
	for i := range meta.Operands {
		op := &meta.Operands[i]
		arg := in.Args[i]
		switch {
		case i == labelIdx:
			target, ok := blockAddrs[in.Succs[0]]
			if !ok {
				return Operands{}, fmt.Errorf("enc: %s: branch to unknown bb%d", meta.Name, in.Succs[0])
			}
			imm, err := SolveDisp(ic, op, addr, target)
			if err != nil {
				return Operands{}, err
			}
			ops.Imms[op.Name] = imm
		case arg.IsImm:
			ops.Imms[op.Name] = isa.Adjust(arg.Imm, op.Width)
		default:
			ops.Regs[op.Name] = int(arg.Reg)
		}
	}
	return ops, nil
}
