package term

import (
	"fmt"

	"iselgen/internal/bv"
)

// Program is a set of terms compiled into one flat postorder register
// machine for repeated evaluation. Term.Eval allocates a memoization map
// per call, which is fine for one-shot evaluation but dominates the
// profile when the same term is evaluated on hundreds of test vectors
// (§V-C sample evaluation, the SMT-fallback probe, and the
// counterexample screen all do exactly that) or once per simulated
// instruction. Compile walks the DAG once; Run then evaluates with no
// allocation at all.
//
// A Program is immutable after Compile: Run evaluates into registers the
// caller owns, so any number of goroutines may Run one Program at once.
type Program struct {
	code  []pinst
	vars  []PVar
	roots []int32 // register of each root, in Compile order
}

// PVar describes one variable slot of a compiled program.
type PVar struct {
	Name  string
	Kind  VarKind
	Width int
}

type pinst struct {
	op         Op
	a          [3]int32 // argument registers (result register is the index)
	aux0, aux1 int32
	width      int32
	slot       int32 // Var: index into the vals argument of Run
	cval       bv.BV // Const: the value
}

// Compile flattens roots into one Program. Shared DAG nodes, within a
// root or across roots, are evaluated once, like Term.Eval's
// memoization. fixed assigns the first variable slots, in order, whether
// or not a root reads them; the remaining variables take the following
// slots in first-occurrence order (the order Term.Vars returns for a
// single root). A variable whose width contradicts its fixed slot
// panics.
func Compile(fixed []PVar, roots ...*Term) *Program {
	p := &Program{vars: append([]PVar(nil), fixed...)}
	slots := make(map[string]int32, len(fixed))
	for i, v := range fixed {
		slots[v.Name] = int32(i)
	}
	regOf := map[*Term]int32{}
	var walk func(u *Term) int32
	walk = func(u *Term) int32 {
		if r, ok := regOf[u]; ok {
			return r
		}
		in := pinst{op: u.Op, aux0: u.Aux0, aux1: u.Aux1, width: int32(u.W())}
		switch u.Op {
		case Const:
			in.cval = u.CVal
		case Var:
			s, ok := slots[u.Name]
			if ok && p.vars[s].Width != u.W() {
				panic(fmt.Sprintf("term: compile: %s is %d bits, slot is %d", u.Name, u.W(), p.vars[s].Width))
			}
			if !ok {
				s = int32(len(p.vars))
				slots[u.Name] = s
				p.vars = append(p.vars, PVar{Name: u.Name, Kind: u.Kind, Width: u.W()})
			}
			in.slot = s
		default:
			for i, a := range u.Args {
				in.a[i] = walk(a) // no op takes more than 3 arguments
			}
		}
		r := int32(len(p.code))
		p.code = append(p.code, in)
		regOf[u] = r
		return r
	}
	for _, t := range roots {
		p.roots = append(p.roots, walk(t))
	}
	return p
}

// Vars returns the variable slots. The slice is shared; callers must
// not modify it.
func (p *Program) Vars() []PVar { return p.vars }

// NumRegs returns the length of the register scratch Run needs.
func (p *Program) NumRegs() int { return len(p.code) }

// Root returns root i's value from the registers of the last Run.
func (p *Program) Root(regs []bv.BV, i int) bv.BV { return regs[p.roots[i]] }

// Arg returns argument j of root i from the registers of the last Run:
// a store's address and value, say.
func (p *Program) Arg(regs []bv.BV, i, j int) bv.BV { return regs[p.code[p.roots[i]].a[j]] }

// Run evaluates every root with vals[i] bound to Vars()[i], into regs
// (NumRegs long, owned by the caller), and returns the first root's
// value. load supplies Load values; nil reads the deterministic hash
// memory model (MemValue), exactly like Term.Eval. Widths of vals must
// match the slots'; Run does not re-check them.
func (p *Program) Run(vals, regs []bv.BV, load func(addr uint64, bits int) bv.BV) bv.BV {
	for i := range p.code {
		in := &p.code[i]
		var r bv.BV
		switch in.op {
		case Const:
			r = in.cval
		case Var:
			r = vals[in.slot]
		case Add:
			r = regs[in.a[0]].Add(regs[in.a[1]])
		case Sub:
			r = regs[in.a[0]].Sub(regs[in.a[1]])
		case Mul:
			r = regs[in.a[0]].Mul(regs[in.a[1]])
		case UDiv:
			r = regs[in.a[0]].UDiv(regs[in.a[1]])
		case SDiv:
			r = regs[in.a[0]].SDiv(regs[in.a[1]])
		case URem:
			r = regs[in.a[0]].URem(regs[in.a[1]])
		case SRem:
			r = regs[in.a[0]].SRem(regs[in.a[1]])
		case Neg:
			r = regs[in.a[0]].Neg()
		case Not:
			r = regs[in.a[0]].Not()
		case And:
			r = regs[in.a[0]].And(regs[in.a[1]])
		case Or:
			r = regs[in.a[0]].Or(regs[in.a[1]])
		case Xor:
			r = regs[in.a[0]].Xor(regs[in.a[1]])
		case Shl:
			r = regs[in.a[0]].Shl(regs[in.a[1]])
		case LShr:
			r = regs[in.a[0]].LShr(regs[in.a[1]])
		case AShr:
			r = regs[in.a[0]].AShr(regs[in.a[1]])
		case RotL:
			r = regs[in.a[0]].RotL(regs[in.a[1]])
		case RotR:
			r = regs[in.a[0]].RotR(regs[in.a[1]])
		case Eq:
			r = bv.NewBool(regs[in.a[0]].Eq(regs[in.a[1]]))
		case Ult:
			r = bv.NewBool(regs[in.a[0]].Ult(regs[in.a[1]]))
		case Slt:
			r = bv.NewBool(regs[in.a[0]].Slt(regs[in.a[1]]))
		case Concat:
			r = regs[in.a[0]].Concat(regs[in.a[1]])
		case Extract:
			r = regs[in.a[0]].Extract(int(in.aux0), int(in.aux1))
		case ZExt:
			r = regs[in.a[0]].ZExt(int(in.width))
		case SExt:
			r = regs[in.a[0]].SExt(int(in.width))
		case Ite:
			if regs[in.a[0]].Bool() {
				r = regs[in.a[1]]
			} else {
				r = regs[in.a[2]]
			}
		case Load:
			if load != nil {
				r = load(regs[in.a[0]].Uint64(), int(in.width))
			} else {
				r = MemValue(regs[in.a[0]].Uint64(), int(in.width))
			}
		case Store:
			r = StoreDigest(regs[in.a[0]].Uint64(), regs[in.a[1]], int(in.width))
		case Popcount:
			r = regs[in.a[0]].Popcount()
		case Clz:
			r = regs[in.a[0]].Clz()
		case Ctz:
			r = regs[in.a[0]].Ctz()
		case Rev:
			r = regs[in.a[0]].Rev()
		default:
			panic(fmt.Sprintf("term: program: eval of %v", in.op))
		}
		regs[i] = r
	}
	return regs[p.roots[0]]
}
