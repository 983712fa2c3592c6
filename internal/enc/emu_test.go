package enc

import (
	"strings"
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/isa/riscv"
	"iselgen/internal/term"
)

// TestEmulatorRejectsImmediateWidth: a decoded immediate whose width is
// not the operand's makes the emulator fail the step instead of
// evaluating a mis-sized value.
func TestEmulatorRejectsImmediateWidth(t *testing.T) {
	tgt, err := riscv.Load(term.NewBuilder())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCodec(tgt)
	if err != nil {
		t.Fatal(err)
	}
	e := &Emulator{Codec: c, Mem: gmir.NewMemory()}
	addi := tgt.ByName("ADDI")
	regs := make([]bv.BV, 32)
	regs[1] = bv.New(64, 40)
	run := func(imm bv.BV) error {
		var fr isa.Frame
		flags := isa.InitialFlags()
		ops := Operands{Rd: 2, Rd2: -1, Regs: map[string]int{"rs1": 1}, Imms: map[string]bv.BV{"imm": imm}}
		_, err := e.step(addi, ops, regs, &flags, &fr, Base)
		return err
	}
	if err := run(bv.New(12, 2)); err != nil || regs[2].Lo != 42 {
		t.Fatalf("12-bit immediate: x2 = %v, err %v", regs[2], err)
	}
	for _, imm := range []bv.BV{bv.New(64, 2), bv.New(11, 2), {}} {
		if err := run(imm); err == nil || !strings.Contains(err.Error(), "immediate") {
			t.Errorf("%d-bit immediate: err = %v", imm.W(), err)
		}
	}
}
