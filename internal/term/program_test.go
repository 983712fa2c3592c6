package term

import (
	"testing"

	"iselgen/internal/bv"
)

// genTerm builds a pseudo-random term over nv variables of width w,
// deterministically from the RNG, covering every op Program implements.
func genTerm(b *Builder, rng *bv.RNG, w, depth, nv int) *Term {
	if depth <= 0 || rng.Uint64()%4 == 0 {
		if rng.Uint64()%3 == 0 {
			return b.ConstBV(rng.BV(w))
		}
		return b.VarT("v"+string(rune('a'+int(rng.Uint64()%uint64(nv)))), KindReg, w)
	}
	sub := func() *Term { return genTerm(b, rng, w, depth-1, nv) }
	switch rng.Uint64() % 16 {
	case 0:
		return b.Add(sub(), sub())
	case 1:
		return b.Sub(sub(), sub())
	case 2:
		return b.Mul(sub(), sub())
	case 3:
		return b.And(sub(), sub())
	case 4:
		return b.Or(sub(), sub())
	case 5:
		return b.Xor(sub(), sub())
	case 6:
		return b.Not(sub())
	case 7:
		return b.Neg(sub())
	case 8:
		return b.Shl(sub(), sub())
	case 9:
		return b.LShr(sub(), sub())
	case 10:
		return b.AShr(sub(), sub())
	case 11:
		if w > 1 {
			return b.ZExt(w, b.Extract(w/2-1, 0, sub()))
		}
		return sub()
	case 12:
		if w > 1 {
			return b.SExt(w, b.Extract(w/2-1, 0, sub()))
		}
		return sub()
	case 13:
		return b.Ite(b.Eq(sub(), sub()), sub(), sub())
	case 14:
		return b.Popcount(sub())
	default:
		return b.Ite(b.Ult(sub(), sub()), sub(), b.Ctz(sub()))
	}
}

// TestProgramMatchesEval cross-checks the compiled evaluator against the
// reference recursive evaluator on random terms and random inputs: the
// two must agree bit for bit, or every Program user (sample digests, the
// SMT-fallback probe, the counterexample screen) silently diverges.
func TestProgramMatchesEval(t *testing.T) {
	rng := bv.NewRNG(42)
	for iter := 0; iter < 500; iter++ {
		b := NewBuilder()
		w := []int{8, 16, 32, 64}[rng.Uint64()%4]
		tm := genTerm(b, rng, w, 4, 3)
		p := Compile(nil, tm)

		pv := p.Vars()
		want := tm.Vars()
		if len(pv) != len(want) {
			t.Fatalf("iter %d: program has %d vars, term has %d", iter, len(pv), len(want))
		}
		for i, v := range want {
			if pv[i].Name != v.Name || pv[i].Width != v.W() {
				t.Fatalf("iter %d: var slot %d is %s/%d, want %s/%d",
					iter, i, pv[i].Name, pv[i].Width, v.Name, v.W())
			}
		}

		vals := make([]bv.BV, len(pv))
		regs := make([]bv.BV, p.NumRegs())
		for trial := 0; trial < 16; trial++ {
			env := NewEnv()
			for i, v := range pv {
				vals[i] = rng.BV(v.Width)
				env.Bind(v.Name, vals[i])
			}
			got := p.Run(vals, regs, nil)
			ref := tm.Eval(env)
			if got != ref {
				t.Fatalf("iter %d trial %d: program=%v eval=%v for %s", iter, trial, got, ref, tm)
			}
		}
	}
}

// TestProgramLoadStore pins the memory-model behavior: with no load
// callback Run must read the same deterministic hash memory Term.Eval
// uses.
func TestProgramLoadStore(t *testing.T) {
	b := NewBuilder()
	addr := b.VarT("a", KindReg, 64)
	ld := b.Load(32, addr)
	tm := b.Add(ld, b.ZExt(32, b.VarT("x", KindReg, 8)))
	p := Compile(nil, tm)
	env := NewEnv()
	env.Bind("a", bv.New(64, 0x1000))
	env.Bind("x", bv.New(8, 7))
	vals := []bv.BV{bv.New(64, 0x1000), bv.New(8, 7)}
	if got, ref := p.Run(vals, make([]bv.BV, p.NumRegs()), nil), tm.Eval(env); got != ref {
		t.Fatalf("load: program=%v eval=%v", got, ref)
	}

	st := b.Store(b.VarT("a", KindReg, 64), b.VarT("v", KindReg, 32))
	ps := Compile(nil, st)
	env2 := NewEnv()
	env2.Bind("a", bv.New(64, 0x2000))
	env2.Bind("v", bv.New(32, 99))
	if got, ref := ps.Run([]bv.BV{bv.New(64, 0x2000), bv.New(32, 99)}, make([]bv.BV, ps.NumRegs()), nil), st.Eval(env2); got != ref {
		t.Fatalf("store: program=%v eval=%v", got, ref)
	}
}

// TestProgramRootsAndFixedSlots checks a multi-root program: fixed slots
// come first in the given order (an unread one included), each root reads
// back its own value, a subterm two roots share is compiled once, and
// loads go through the callback when one is given.
func TestProgramRootsAndFixedSlots(t *testing.T) {
	b := NewBuilder()
	x, y := b.VarT("x", KindReg, 32), b.VarT("y", KindReg, 32)
	sum := b.Add(x, y)
	z := b.Eq(sum, b.Const(32, 0))
	ld := b.Load(32, b.ZExt(64, sum))
	fixed := []PVar{{Name: "y", Kind: KindReg, Width: 32}, {Name: "unused", Kind: KindImm, Width: 8}}
	p := Compile(fixed, sum, z, ld)

	wantVars := []string{"y", "unused", "x"}
	if len(p.Vars()) != len(wantVars) {
		t.Fatalf("vars = %v, want %v", p.Vars(), wantVars)
	}
	for i, v := range p.Vars() {
		if v.Name != wantVars[i] {
			t.Fatalf("slot %d is %s, want %s", i, v.Name, wantVars[i])
		}
	}
	adds := 0
	for _, in := range p.code {
		if in.op == Add {
			adds++
		}
	}
	if adds != 1 {
		t.Fatalf("shared adder compiled %d times", adds)
	}

	vals := []bv.BV{bv.New(32, 5), bv.Zero(8), bv.New(32, 0xfffffffb)}
	regs := make([]bv.BV, p.NumRegs())
	var loads []uint64
	load := func(addr uint64, bits int) bv.BV {
		loads = append(loads, addr)
		return bv.New(bits, 77)
	}
	if got := p.Run(vals, regs, load); got != bv.Zero(32) {
		t.Fatalf("first root = %v, want 0", got)
	}
	if got := p.Root(regs, 1); got != bv.NewBool(true) {
		t.Fatalf("second root = %v, want 1", got)
	}
	if got := p.Root(regs, 2); got != bv.New(32, 77) || len(loads) != 1 || loads[0] != 0 {
		t.Fatalf("load root = %v after loads %v", got, loads)
	}
}
