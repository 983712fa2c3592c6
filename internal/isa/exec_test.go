package isa

import (
	"strings"
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/gmir"
	"iselgen/internal/spec"
	"iselgen/internal/term"
)

const widthSpec = `
inst ADDW(rn: reg32, rm: reg32) { rd = rn + rm; }
inst ADDX(rn: reg64, rm: reg64) { rd = rn + rm; }
inst ADDI(rn: reg64, imm: imm12) { rd = rn + zext(imm, 64); }
`

// stepRd runs one instruction through Step and returns its rd result.
func stepRd(t *testing.T, in *Instruction, ops ...bv.BV) (bv.BV, error) {
	t.Helper()
	var fr Frame
	flags := InitialFlags()
	var rd bv.BV
	fetch := func(i int, _ *spec.Operand) bv.BV { return ops[i] }
	_, err := in.Step(&fr, &flags, 0, gmir.NewMemory(), fetch, func(_ int, _ *spec.Effect, v bv.BV) error {
		rd = v
		return nil
	})
	return rd, err
}

// TestStepAdjustsRegisterWidths pins the register-file convention: a
// register value narrower or wider than its operand reads as Adjust
// makes it (zero-extended or truncated, zero when never written), exactly
// what Term.Eval computes over the adjusted bindings.
func TestStepAdjustsRegisterWidths(t *testing.T) {
	b := term.NewBuilder()
	tgt, err := LoadTarget(b, "width", widthSpec, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		inst   string
		rn, rm bv.BV
		want   uint64
	}{
		{"ADDW", bv.New(64, 0x1_0000_0005), bv.New(8, 0xff), 0x104},
		{"ADDW", bv.New(16, 0xffff), bv.BV{}, 0xffff},
		{"ADDW", bv.New(64, 0xffff_ffff), bv.New(32, 1), 0},
		{"ADDX", bv.New(32, 0xffff_ffff), bv.New(8, 1), 0x1_0000_0000},
		{"ADDX", bv.BV{}, bv.New(128, 7), 7},
	}
	for _, c := range cases {
		in := tgt.ByName(c.inst)
		got, err := stepRd(t, in, c.rn, c.rm)
		if err != nil {
			t.Fatalf("%s(%v, %v): %v", c.inst, c.rn, c.rm, err)
		}
		env := term.NewEnv()
		env.Bind(in.Name+".rn", Adjust(c.rn, in.Operands[0].Width))
		env.Bind(in.Name+".rm", Adjust(c.rm, in.Operands[1].Width))
		ref := in.Effects[0].T.Eval(env)
		if got != ref || got.Lo != c.want || got.W() != in.Operands[0].Width {
			t.Errorf("%s(%v, %v) = %v, Eval over Adjust = %v, want %#x", c.inst, c.rn, c.rm, got, ref, c.want)
		}
	}
}

// TestStepRejectsImmediateWidth: an immediate is never adjusted — one of
// the wrong width, or a missing one, is an error, not a silently
// re-interpreted value.
func TestStepRejectsImmediateWidth(t *testing.T) {
	b := term.NewBuilder()
	tgt, err := LoadTarget(b, "width", widthSpec, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	addi := tgt.ByName("ADDI")
	if got, err := stepRd(t, addi, bv.New(64, 1), bv.New(12, 2)); err != nil || got.Lo != 3 {
		t.Fatalf("ADDI at the declared width = %v, %v", got, err)
	}
	for _, imm := range []bv.BV{bv.New(32, 2), bv.New(8, 2), {}} {
		if _, err := stepRd(t, addi, bv.New(64, 1), imm); err == nil || !strings.Contains(err.Error(), "immediate imm") {
			t.Errorf("ADDI with a %d-bit immediate: err = %v", imm.W(), err)
		}
	}
}
