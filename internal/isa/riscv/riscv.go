// Package riscv defines the RV64IM instruction set (the integer portion
// of the paper's rv64imafd profile — floating point is out of scope for
// the synthesis, as in the paper) in the spec DSL.
//
// The W-form instructions operate on the low 32 bits and sign-extend the
// result, exactly as the SAIL model specifies. Branch variants expand per
// comparison, mirroring the paper's attribute expansion.
//
// Every instruction carries its real RV64IM machine encoding (R/I/S/B/
// U/J formats, including the scrambled branch and jump immediate bit
// placement), so the same spec drives the assembler, disassembler, and
// machine-code emulator in internal/enc. The x0-based idioms (MV, NEG,
// SEQZ, ...) are distinct instructions here rather than operand special
// cases, so they live in the custom-0 opcode space (0x0b) to keep the
// opcode space unambiguous — the architectural encodings of those
// idioms (e.g. ADDI rd, rs, 0 for MV) would collide with their parent
// instructions.
package riscv

import (
	"fmt"
	"strings"
	"sync"

	"iselgen/internal/isa"
	"iselgen/internal/term"
)

// Base opcodes (bits [6:0]).
const (
	opLoad   = 0x03
	opOpImm  = 0x13
	opAuipc  = 0x17
	opOpImmW = 0x1b
	opStore  = 0x23
	opOp     = 0x33
	opLui    = 0x37
	opOpW    = 0x3b
	opBranch = 0x63
	opJalr   = 0x67
	opJal    = 0x6f
	opCustom = 0x0b // custom-0: this model's register idioms
)

// encR renders an R-type encoding: funct7 | rs2 | rs1 | funct3 | rd | op.
func encR(op, f3, f7 int) string {
	return fmt.Sprintf("enc(32) { [6:0]=0x%02x; [11:7]=rd; [14:12]=%d; [19:15]=rs1; [24:20]=rs2; [31:25]=0x%02x; }",
		op, f3, f7)
}

// encI renders an I-type encoding: imm[11:0] | rs1 | funct3 | rd | op.
func encI(op, f3 int) string {
	return fmt.Sprintf("enc(32) { [6:0]=0x%02x; [11:7]=rd; [14:12]=%d; [19:15]=rs1; [31:20]=imm; }", op, f3)
}

// encShift renders the shift-immediate form: funct | shamt | rs1 |
// funct3 | rd | op, with a 6-bit shamt for the 64-bit shifts (fhi at
// [31:26]) or a 5-bit shamt for the W forms (fhi at [31:25]).
func encShift(op, f3, shBits, fhi int) string {
	return fmt.Sprintf("enc(32) { [6:0]=0x%02x; [11:7]=rd; [14:12]=%d; [19:15]=rs1; [%d:20]=sh; [31:%d]=0x%02x; }",
		op, f3, 19+shBits, 20+shBits, fhi)
}

// encU renders a U-type encoding: imm[31:12] | rd | op.
func encU(op int) string {
	return fmt.Sprintf("enc(32) { [6:0]=0x%02x; [11:7]=rd; [31:12]=imm; }", op)
}

// encS renders an S-type encoding: imm[11:5] | rs2 | rs1 | funct3 |
// imm[4:0] | op.
func encS(f3 int) string {
	return fmt.Sprintf("enc(32) { [6:0]=0x%02x; [11:7]=imm[4:0]; [14:12]=%d; [19:15]=rs1; [24:20]=rs2; [31:25]=imm[11:5]; }",
		opStore, f3)
}

// encB renders a B-type encoding. The spec operand imm is the 12-bit
// halfword offset (offset>>1), so architectural offset bit k is operand
// bit k-1: imm[12|10:5] lands in [31|30:25] and imm[4:1|11] in [11:8|7].
func encB(f3 int) string {
	return fmt.Sprintf("enc(32) { [6:0]=0x%02x; [7]=imm[10]; [11:8]=imm[3:0]; [14:12]=%d; [19:15]=rs1; [24:20]=rs2; [30:25]=imm[9:4]; [31]=imm[11]; }",
		opBranch, f3)
}

// encJ renders the J-type JAL encoding: the 20-bit halfword offset
// scatters as imm[20|10:1|11|19:12] into [31|30:21|20|19:12].
func encJ(op int) string {
	return fmt.Sprintf("enc(32) { [6:0]=0x%02x; [11:7]=rd; [19:12]=imm[18:11]; [20]=imm[10]; [30:21]=imm[9:0]; [31]=imm[19]; }", op)
}

// Spec returns the RV64IM specification source, generated once per
// process.
func Spec() string { return specText() }

var specText = sync.OnceValue(buildSpec)

// buildSpec generates the RV64IM specification source.
func buildSpec() string {
	var sb strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&sb, format+"\n", args...) }

	// Register-register ALU ops.
	w("inst ADD(rs1: reg64, rs2: reg64) { rd = rs1 + rs2; } %s", encR(opOp, 0, 0x00))
	w("inst SUB(rs1: reg64, rs2: reg64) { rd = rs1 - rs2; } %s", encR(opOp, 0, 0x20))
	w("inst AND(rs1: reg64, rs2: reg64) { rd = rs1 & rs2; } %s", encR(opOp, 7, 0x00))
	w("inst OR(rs1: reg64, rs2: reg64) { rd = rs1 | rs2; } %s", encR(opOp, 6, 0x00))
	w("inst XOR(rs1: reg64, rs2: reg64) { rd = rs1 ^ rs2; } %s", encR(opOp, 4, 0x00))
	w("inst SLL(rs1: reg64, rs2: reg64) { rd = rs1 << (rs2 %% 64:64); } %s", encR(opOp, 1, 0x00))
	w("inst SRL(rs1: reg64, rs2: reg64) { rd = rs1 >> (rs2 %% 64:64); } %s", encR(opOp, 5, 0x00))
	w("inst SRA(rs1: reg64, rs2: reg64) { rd = ashr(rs1, rs2 %% 64:64); } %s", encR(opOp, 5, 0x20))
	w("inst SLT(rs1: reg64, rs2: reg64) { rd = zext(slt(rs1, rs2), 64); } %s", encR(opOp, 2, 0x00))
	w("inst SLTU(rs1: reg64, rs2: reg64) { rd = zext(ult(rs1, rs2), 64); } %s", encR(opOp, 3, 0x00))

	// Immediate ALU ops (12-bit sign-extended immediates).
	w("inst ADDI(rs1: reg64, imm: imm12) { rd = rs1 + sext(imm, 64); } %s", encI(opOpImm, 0))
	w("inst ANDI(rs1: reg64, imm: imm12) { rd = rs1 & sext(imm, 64); } %s", encI(opOpImm, 7))
	w("inst ORI(rs1: reg64, imm: imm12) { rd = rs1 | sext(imm, 64); } %s", encI(opOpImm, 6))
	w("inst XORI(rs1: reg64, imm: imm12) { rd = rs1 ^ sext(imm, 64); } %s", encI(opOpImm, 4))
	w("inst SLTI(rs1: reg64, imm: imm12) { rd = zext(slt(rs1, sext(imm, 64)), 64); } %s", encI(opOpImm, 2))
	w("inst SLTIU(rs1: reg64, imm: imm12) { rd = zext(ult(rs1, sext(imm, 64)), 64); } %s", encI(opOpImm, 3))
	w("inst SLLI(rs1: reg64, sh: imm6) { rd = rs1 << zext(sh, 64); } %s", encShift(opOpImm, 1, 6, 0x00))
	w("inst SRLI(rs1: reg64, sh: imm6) { rd = rs1 >> zext(sh, 64); } %s", encShift(opOpImm, 5, 6, 0x00))
	w("inst SRAI(rs1: reg64, sh: imm6) { rd = ashr(rs1, zext(sh, 64)); } %s", encShift(opOpImm, 5, 6, 0x10))

	// Upper-immediate materialization.
	w("inst LUI(imm: imm20) { rd = sext(concat(imm, 0:12), 64); } %s", encU(opLui))
	w("inst AUIPC(imm: imm20) { rd = pc + sext(concat(imm, 0:12), 64); } %s", encU(opAuipc))
	// Constant zero and register move (x0-based idioms), custom-0 space.
	w("inst MVZERO() { rd = 0:64; } enc(32) { [6:0]=0x0b; [11:7]=rd; [14:12]=0; [31:15]=0; }")
	w("inst MV(rs1: reg64) { rd = rs1; } enc(32) { [6:0]=0x0b; [11:7]=rd; [14:12]=1; [19:15]=rs1; [31:20]=0; }")
	w("inst NEG(rs2: reg64) { rd = -rs2; } enc(32) { [6:0]=0x0b; [11:7]=rd; [14:12]=2; [19:15]=0; [24:20]=rs2; [31:25]=0; }")
	w("inst NOT(rs1: reg64) { rd = ~rs1; } enc(32) { [6:0]=0x0b; [11:7]=rd; [14:12]=3; [19:15]=rs1; [31:20]=0; }")
	w("inst SEQZ(rs1: reg64) { rd = zext(rs1 == 0, 64); } enc(32) { [6:0]=0x0b; [11:7]=rd; [14:12]=4; [19:15]=rs1; [31:20]=0; }")
	w("inst SNEZ(rs2: reg64) { rd = zext(ult(0:64, rs2), 64); } enc(32) { [6:0]=0x0b; [11:7]=rd; [14:12]=5; [19:15]=0; [24:20]=rs2; [31:25]=0; }")

	// W forms: operate on low 32 bits, sign-extend the 32-bit result.
	w("inst ADDW(rs1: reg64, rs2: reg64) { rd = sext(trunc(rs1, 32) + trunc(rs2, 32), 64); } %s", encR(opOpW, 0, 0x00))
	w("inst SUBW(rs1: reg64, rs2: reg64) { rd = sext(trunc(rs1, 32) - trunc(rs2, 32), 64); } %s", encR(opOpW, 0, 0x20))
	w("inst ADDIW(rs1: reg64, imm: imm12) { rd = sext(trunc(rs1, 32) + sext(imm, 32), 64); } %s", encI(opOpImmW, 0))
	w("inst SLLIW(rs1: reg64, sh: imm5) { rd = sext(trunc(rs1, 32) << zext(sh, 32), 64); } %s", encShift(opOpImmW, 1, 5, 0x00))
	w("inst SRLIW(rs1: reg64, sh: imm5) { rd = sext(trunc(rs1, 32) >> zext(sh, 32), 64); } %s", encShift(opOpImmW, 5, 5, 0x00))
	w("inst SRAIW(rs1: reg64, sh: imm5) { rd = sext(ashr(trunc(rs1, 32), zext(sh, 32)), 64); } %s", encShift(opOpImmW, 5, 5, 0x20))
	w("inst SLLW(rs1: reg64, rs2: reg64) { rd = sext(trunc(rs1, 32) << (trunc(rs2, 32) %% 32:32), 64); } %s", encR(opOpW, 1, 0x00))
	w("inst SRLW(rs1: reg64, rs2: reg64) { rd = sext(trunc(rs1, 32) >> (trunc(rs2, 32) %% 32:32), 64); } %s", encR(opOpW, 5, 0x00))
	w("inst SRAW(rs1: reg64, rs2: reg64) { rd = sext(ashr(trunc(rs1, 32), trunc(rs2, 32) %% 32:32), 64); } %s", encR(opOpW, 5, 0x20))

	// M extension.
	w("inst MUL(rs1: reg64, rs2: reg64) { rd = rs1 * rs2; } %s", encR(opOp, 0, 0x01))
	w("inst MULW(rs1: reg64, rs2: reg64) { rd = sext(trunc(rs1, 32) * trunc(rs2, 32), 64); } %s", encR(opOpW, 0, 0x01))
	w("inst MULH(rs1: reg64, rs2: reg64) { rd = trunc(ashr(sext(rs1, 128) * sext(rs2, 128), 64:128), 64); } %s", encR(opOp, 1, 0x01))
	w("inst MULHU(rs1: reg64, rs2: reg64) { rd = trunc((zext(rs1, 128) * zext(rs2, 128)) >> 64:128, 64); } %s", encR(opOp, 3, 0x01))
	w("inst MULHSU(rs1: reg64, rs2: reg64) { rd = trunc(ashr(sext(rs1, 128) * zext(rs2, 128), 64:128), 64); } %s", encR(opOp, 2, 0x01))
	w("inst DIV(rs1: reg64, rs2: reg64) { rd = sdiv(rs1, rs2); } %s", encR(opOp, 4, 0x01))
	w("inst DIVU(rs1: reg64, rs2: reg64) { rd = udiv(rs1, rs2); } %s", encR(opOp, 5, 0x01))
	w("inst REM(rs1: reg64, rs2: reg64) { rd = srem(rs1, rs2); } %s", encR(opOp, 6, 0x01))
	w("inst REMU(rs1: reg64, rs2: reg64) { rd = urem(rs1, rs2); } %s", encR(opOp, 7, 0x01))
	w("inst DIVW(rs1: reg64, rs2: reg64) { rd = sext(sdiv(trunc(rs1, 32), trunc(rs2, 32)), 64); } %s", encR(opOpW, 4, 0x01))
	w("inst DIVUW(rs1: reg64, rs2: reg64) { rd = sext(udiv(trunc(rs1, 32), trunc(rs2, 32)), 64); } %s", encR(opOpW, 5, 0x01))
	w("inst REMW(rs1: reg64, rs2: reg64) { rd = sext(srem(trunc(rs1, 32), trunc(rs2, 32)), 64); } %s", encR(opOpW, 6, 0x01))
	w("inst REMUW(rs1: reg64, rs2: reg64) { rd = sext(urem(trunc(rs1, 32), trunc(rs2, 32)), 64); } %s", encR(opOpW, 7, 0x01))

	// Loads (base + sign-extended 12-bit offset).
	for _, l := range []struct {
		name string
		bits int
		ext  string
		f3   int
	}{
		{"LB", 8, "sext", 0}, {"LH", 16, "sext", 1}, {"LW", 32, "sext", 2},
		{"LD", 64, "", 3}, {"LBU", 8, "zext", 4}, {"LHU", 16, "zext", 5}, {"LWU", 32, "zext", 6},
	} {
		val := fmt.Sprintf("load(rs1 + sext(imm, 64), %d)", l.bits)
		if l.ext != "" {
			val = fmt.Sprintf("%s(%s, 64)", l.ext, val)
		}
		w("inst %s(rs1: reg64, imm: imm12) { rd = %s; } %s", l.name, val, encI(opLoad, l.f3))
	}
	// Stores.
	for _, s := range []struct {
		name string
		bits int
		f3   int
	}{{"SB", 8, 0}, {"SH", 16, 1}, {"SW", 32, 2}, {"SD", 64, 3}} {
		val := "rs2"
		if s.bits < 64 {
			val = fmt.Sprintf("trunc(rs2, %d)", s.bits)
		}
		w("inst %s(rs2: reg64, rs1: reg64, imm: imm12) { mem[rs1 + sext(imm, 64), %d] = %s; } %s",
			s.name, s.bits, val, encS(s.f3))
	}

	// Branches (13-bit offsets, low bit implicit zero).
	for _, br := range []struct {
		name, cond string
		f3         int
	}{
		{"BEQ", "rs1 == rs2", 0}, {"BNE", "rs1 != rs2", 1},
		{"BLT", "slt(rs1, rs2)", 4}, {"BGE", "sge(rs1, rs2)", 5},
		{"BLTU", "ult(rs1, rs2)", 6}, {"BGEU", "uge(rs1, rs2)", 7},
	} {
		w("inst %s(rs1: reg64, rs2: reg64, imm: imm12) { if (%s) { pc = pc + sext(concat(imm, 0:1), 64); } } %s",
			br.name, br.cond, encB(br.f3))
	}
	w("inst JAL(imm: imm20) { rd = pc + 4; pc = pc + sext(concat(imm, 0:1), 64); } %s", encJ(opJal))
	// J is the jal-x0 alias; its architectural encoding would collide
	// with JAL in a pure pattern decoder, so it lives in custom-0.
	w("inst J(imm: imm20) { pc = pc + sext(concat(imm, 0:1), 64); } enc(32) { [6:0]=0x0b; [11:7]=imm[4:0]; [14:12]=6; [29:15]=imm[19:5]; [31:30]=0; }")
	w("inst JALR(rs1: reg64, imm: imm12) { rd = pc + 4; pc = (rs1 + sext(imm, 64)) & ~1:64; } %s", encI(opJalr, 0))

	// Opcode space this model never emits but real RV64 occupies: FENCE
	// and SYSTEM stay reserved so the decoder reports them explicitly.
	w("reserved(32) { [6:0]=0x0f; }")
	w("reserved(32) { [6:0]=0x73; }")

	return sb.String()
}

func latencies() map[string]int {
	lat := map[string]int{
		"MUL": 3, "MULW": 3, "MULH": 6, "MULHU": 6, "MULHSU": 6,
		"DIV": 20, "DIVU": 20, "REM": 20, "REMU": 20,
		"DIVW": 20, "DIVUW": 20, "REMW": 20, "REMUW": 20,
	}
	for _, n := range []string{"LB", "LH", "LW", "LD", "LBU", "LHU", "LWU"} {
		lat[n] = 3
	}
	return lat
}

// Load builds the RISC-V target in the given term builder. The declared
// size 4 is cross-checked against every derived encoding width.
func Load(b *term.Builder) (*isa.Target, error) {
	return isa.LoadTarget(b, "riscv", Spec(), latencies(), 4)
}
