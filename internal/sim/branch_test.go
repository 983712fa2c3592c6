package sim

import (
	"os"
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/isa/aarch64"
	"iselgen/internal/isa/riscv"
	"iselgen/internal/isa/x86"
	"iselgen/internal/mir"
	"iselgen/internal/spec"
	"iselgen/internal/term"
)

// probeTaken is the two-label probe the simulator used to decide a
// branch, computed with Term.Eval so the reference stays independent of
// term.Program: evaluate the PC effect with the label bound to 2 and to
// 3; the branch is taken when the results differ, or when both leave
// pc+size (a displacement-independent jump).
func probeTaken(t *testing.T, in *isa.Instruction, args []mir.Operand, regs []bv.BV, flags [4]bv.BV) bool {
	t.Helper()
	env := term.NewEnv()
	label, labelW := "", 0
	for i, op := range in.Operands {
		name := in.Name + "." + op.Name
		if args[i].IsImm {
			env.Bind(name, Adjust(args[i].Imm, op.Width))
			if label == "" && op.Kind == spec.OpImm {
				label, labelW = name, op.Width
			}
		} else {
			env.Bind(name, Adjust(regs[args[i].Reg], op.Width))
		}
	}
	if label == "" {
		t.Fatalf("%s: branch without label immediate", in.Name)
	}
	for i, f := range spec.FlagNames {
		env.Bind(in.Name+"."+f, flags[i])
	}
	env.Bind(in.Name+".pc", bv.New(64, pcBase))
	var pcT *term.Term
	for _, e := range in.Effects {
		if e.Kind == spec.EffPC {
			pcT = e.T
		}
	}
	env.Bind(label, bv.New(labelW, 2))
	r1 := pcT.Eval(env)
	env.Bind(label, bv.New(labelW, 3))
	r2 := pcT.Eval(env)
	return r1 != r2 || r1.Lo != pcBase+uint64(in.Size)
}

func decisionTargets(t *testing.T) map[string]*isa.Target {
	t.Helper()
	out := map[string]*isa.Target{}
	for name, load := range map[string]func(*term.Builder) (*isa.Target, error){
		"aarch64": aarch64.Load, "riscv": riscv.Load, "x86": x86.Load,
	} {
		tgt, err := load(term.NewBuilder())
		if err != nil {
			t.Fatal(err)
		}
		out[name] = tgt
	}
	src, err := os.ReadFile("../../examples/newisa/zetacore.spec")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := isa.LoadTarget(term.NewBuilder(), "zetacore", string(src), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out["zetacore"] = tgt
	return out
}

// TestBranchDecisionMatchesProbe checks, for every PC-effect instruction
// of every target, that the simulator's single evaluation (label bound
// to 0, taken when the PC leaves pc+size) decides exactly as the retired
// two-label probe did, on operands that make each condition both true
// and false. (zetacore.spec declares no PC-effect instruction; it is
// loaded so that adding one puts it under this test.)
func TestBranchDecisionMatchesProbe(t *testing.T) {
	values := []uint64{0, 1, 2, 0x7fffffff, 0x80000000, 0xffffffff, 1 << 63, ^uint64(0)}
	rng := bv.NewRNG(7)
	covered := map[string]int{}
	for name, tgt := range decisionTargets(t) {
		for _, in := range tgt.Insts {
			if !in.HasPCEffect() {
				continue
			}
			covered[name]++
			conditional := false
			var dsts []mir.Reg
			for _, e := range in.Effects {
				conditional = conditional || (e.Kind == spec.EffPC && e.T.Op == term.Ite)
				if e.Kind == spec.EffReg || e.Kind == spec.EffWB {
					dsts = append(dsts, mir.Reg(len(in.Operands)+len(dsts)))
				}
			}
			seen := map[bool]bool{}
			for trial := 0; trial < 256; trial++ {
				args := make([]mir.Operand, len(in.Operands))
				regs := make([]bv.BV, len(in.Operands)+len(dsts))
				first := bv.New(64, values[rng.Intn(len(values))])
				for i, op := range in.Operands {
					switch {
					case op.Kind == spec.OpImm:
						args[i] = mir.I(rng.BV(op.Width))
						continue
					case trial%4 == 0:
						regs[i] = first // equal register operands
					default:
						regs[i] = bv.New(64, values[rng.Intn(len(values))])
					}
					args[i] = mir.R(mir.Reg(i))
				}
				var flags [4]bv.BV
				for i := range flags {
					flags[i] = bv.New(1, rng.Uint64()&1)
				}
				want := probeTaken(t, in, args, regs, flags)

				m := &Machine{Mem: gmir.NewMemory()}
				var fr isa.Frame
				got, err := m.step(&mir.Inst{Meta: in, Dsts: dsts, Args: args, Succs: []int{1}}, regs, &flags, &fr)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, in.Name, err)
				}
				if got != want {
					t.Fatalf("%s/%s: args %v regs %v flags %v: taken=%v, probe says %v",
						name, in.Name, args, regs, flags, got, want)
				}
				seen[got] = true
			}
			if conditional && !(seen[true] && seen[false]) {
				t.Errorf("%s/%s: conditional branch only ever decided taken=%v", name, in.Name, seen[true])
			}
		}
	}
	for _, name := range []string{"aarch64", "riscv", "x86"} {
		if covered[name] == 0 {
			t.Errorf("%s: no PC-effect instruction covered", name)
		}
	}
	t.Logf("PC-effect instructions covered: %v", covered)
}
