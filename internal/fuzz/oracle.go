package fuzz

import (
	"errors"
	"fmt"

	"iselgen/internal/bv"
	"iselgen/internal/enc"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/isel"
	"iselgen/internal/sim"
)

// ErrSkip marks a program the pipeline legitimately cannot compile
// (both the primary and fallback backend declined) — not a bug.
var ErrSkip = errors.New("fuzz: selection fell back on every backend")

// Pipeline is one end-to-end selection pipeline under test.
type Pipeline struct {
	// Name is the target name passed to isel.Prepare ("aarch64", "riscv",
	// or an inline-spec target name).
	Name string
	// Primary is the backend under test (synthesized or handwritten).
	Primary *isel.Backend
	// Fallback substitutes when Primary cannot select the function — the
	// way LLVM falls back to SelectionDAG. Nil means fallback = skip.
	Fallback *isel.Backend
	// MinWidth is the legalization floor (0 = 32).
	MinWidth int
	// ISA enables the encode oracle (machine round-trip); nil or a
	// target without encoding clauses skips it.
	ISA *isa.Target

	opt   *isel.Backend  // cached optimal-selector twin (selector-diff oracle)
	codec *enc.Codec     // cached encoder/decoder tables (encode oracle)
	asm   *enc.Assembler // cached MIR assembler (encode oracle)
}

// Vectors derives n deterministic argument vectors for a program.
func Vectors(rng *bv.RNG, p *Prog, n int) [][]bv.BV {
	widths := p.ParamWidths()
	out := make([][]bv.BV, n)
	for i := range out {
		args := make([]bv.BV, len(widths))
		for j, w := range widths {
			args[j] = rng.BV(w)
		}
		out[i] = args
	}
	return out
}

// CheckProg runs the full differential oracle on one program: the gMIR
// interpreter is the reference; the candidate side legalizes, selects
// (with fallback), and simulates; results and final memory must be
// bit-identical on every input vector, and the simulation must be
// deterministic including its final flag state. A nil error means the
// program passed; ErrSkip means no backend could compile it; any other
// error is a genuine pipeline failure (mismatches and panics alike).
func CheckProg(pl *Pipeline, p *Prog, vectors [][]bv.BV) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()

	f1, berr := p.Build()
	if berr != nil {
		return fmt.Errorf("build: %w", berr)
	}

	// Reference runs.
	type refRun struct {
		ret bv.BV
		mem map[uint64]byte
	}
	refs := make([]refRun, len(vectors))
	for i, args := range vectors {
		mem := gmir.NewMemory()
		ip := &gmir.Interp{Mem: mem}
		ret, rerr := ip.Run(f1, args...)
		if rerr != nil {
			return fmt.Errorf("interp: %w", rerr)
		}
		refs[i] = refRun{ret: ret, mem: mem.Snapshot()}
	}

	// Candidate side: legalize, prepare, select (shared with the encode
	// oracle).
	mf, usedBackend, serr := selectProg(pl, p)
	if serr != nil {
		return serr
	}

	for i, args := range vectors {
		mem := gmir.NewMemory()
		m := &sim.Machine{Mem: mem}
		res, serr := m.Run(mf, args)
		if serr != nil {
			return fmt.Errorf("%s: sim: %w", usedBackend, serr)
		}
		got := sim.Adjust(res.Ret, 64)
		if got != refs[i].ret {
			return fmt.Errorf("%s: result mismatch on vector %d %s: interp=%s sim=%s",
				usedBackend, i, fmtArgs(args), refs[i].ret, got)
		}
		if !memEqual(refs[i].mem, mem.Snapshot()) {
			return fmt.Errorf("%s: final memory mismatch on vector %d %s", usedBackend, i, fmtArgs(args))
		}
		if i == 0 {
			// Determinism: the same machine code on the same inputs must
			// reproduce the result, cycle count, and final flag state.
			m2 := &sim.Machine{Mem: gmir.NewMemory()}
			res2, serr2 := m2.Run(mf, args)
			if serr2 != nil {
				return fmt.Errorf("%s: sim rerun: %w", usedBackend, serr2)
			}
			if res2.Ret != res.Ret || res2.Cycles != res.Cycles || res2.Flags != res.Flags {
				return fmt.Errorf("%s: nondeterministic simulation (ret %s vs %s, cycles %d vs %d, flags %v vs %v)",
					usedBackend, res.Ret, res2.Ret, res.Cycles, res2.Cycles, res.Flags, res2.Flags)
			}
		}
	}
	return nil
}

func fmtArgs(args []bv.BV) string {
	s := "["
	for i, a := range args {
		if i > 0 {
			s += " "
		}
		s += a.String()
	}
	return s + "]"
}

func memEqual(a, b map[uint64]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// IsFailure reports whether a CheckProg error is a genuine failure
// (mismatch or panic) rather than a legitimate skip.
func IsFailure(err error) bool {
	return err != nil && !errors.Is(err, ErrSkip)
}
