package fuzz

import (
	"bytes"
	"fmt"

	"iselgen/internal/bv"
	"iselgen/internal/enc"
	"iselgen/internal/gmir"
	"iselgen/internal/isel"
	"iselgen/internal/mir"
	"iselgen/internal/sim"
)

// The machine-encoding round-trip oracle: selected MIR is assembled to
// bytes, the bytes are disassembled back, and the decoded stream must
// re-encode byte-identically (encode/decode is a bijection); then the
// bytes run on the decoding emulator — which trusts nothing but the
// bytes — and every input vector must produce the same result and the
// same final memory as the MIR simulator. A divergence means the spec's
// encoding clauses, the decode trie, the displacement solver, or the
// emulator disagree about what the machine does.

// selectProg legalizes, prepares, and selects a program with fallback —
// the candidate side shared by CheckProg and CheckEncode. The returned
// error wraps ErrSkip when every backend declines.
func selectProg(pl *Pipeline, p *Prog) (*mir.Func, string, error) {
	minW := pl.MinWidth
	if minW == 0 {
		minW = 32
	}
	f, berr := p.Build()
	if berr != nil {
		return nil, "", fmt.Errorf("build: %w", berr)
	}
	if lerr := gmir.Legalize(f, minW); lerr != nil {
		return nil, "", fmt.Errorf("legalize: %w", lerr)
	}
	isel.Prepare(f, pl.Name)
	mf, rep := pl.Primary.Select(f)
	used := pl.Primary.Name
	if rep.Fallback {
		if pl.Fallback == nil || pl.Fallback == pl.Primary {
			return nil, used, fmt.Errorf("%w (%s)", ErrSkip, rep.FallbackReason)
		}
		f2, berr := p.Build()
		if berr != nil {
			return nil, used, fmt.Errorf("rebuild: %w", berr)
		}
		if lerr := gmir.Legalize(f2, minW); lerr != nil {
			return nil, used, fmt.Errorf("legalize: %w", lerr)
		}
		isel.Prepare(f2, pl.Name)
		mf, rep = pl.Fallback.Select(f2)
		used = pl.Fallback.Name
		if rep.Fallback {
			return nil, used, fmt.Errorf("%w (%s)", ErrSkip, rep.FallbackReason)
		}
	}
	if mf == nil {
		return nil, used, fmt.Errorf("%s: Select returned nil function without fallback", used)
	}
	return mf, used, nil
}

// encCodec lazily builds (and caches) the pipeline's codec/assembler.
func (pl *Pipeline) encCodec() (*enc.Codec, *enc.Assembler, error) {
	if pl.codec != nil {
		return pl.codec, pl.asm, nil
	}
	if pl.ISA == nil || !pl.ISA.HasEncodings() {
		return nil, nil, fmt.Errorf("%w (target %s declares no machine encodings)", ErrSkip, pl.Name)
	}
	c, err := enc.NewCodec(pl.ISA)
	if err != nil {
		return nil, nil, err
	}
	pl.codec, pl.asm = c, enc.NewAssembler(c)
	return pl.codec, pl.asm, nil
}

// CheckEncode runs the round-trip oracle on one program. A nil error
// means the program passed; ErrSkip-wrapped errors mean the program
// legitimately cannot be taken to machine code (no backend selected it,
// it needs more registers than the encoding admits, or its MIR uses
// shapes with no faithful encoding); anything else is a genuine bug.
func CheckEncode(pl *Pipeline, p *Prog, vectors [][]bv.BV) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()

	c, asm, err := pl.encCodec()
	if err != nil {
		return err
	}
	mf, used, err := selectProg(pl, p)
	if err != nil {
		return err
	}
	img, aerr := asm.Assemble(mf)
	if aerr != nil {
		// Structural unencodability (register pressure, PC-reading
		// semantics, unrepresentable write-backs) is a skip, not a bug:
		// the assembler refuses rather than mis-encodes.
		return fmt.Errorf("%w (assemble: %v)", ErrSkip, aerr)
	}

	// Round trip: decode the image and demand byte identity, unit by unit.
	listing := c.Disassemble(img.Code, img.Base)
	if len(listing) != len(img.Units) {
		return fmt.Errorf("%s: round-trip: %d units assembled, %d decoded", used, len(img.Units), len(listing))
	}
	for i, ln := range listing {
		u := img.Units[i]
		if ln.Inst == nil {
			return fmt.Errorf("%s: round-trip: unit %d (%s at %#x) decodes as %s",
				used, i, u.IC.Inst.Name, u.Addr, ln.Text)
		}
		if ln.Inst != u.IC || ln.Addr != u.Addr {
			return fmt.Errorf("%s: round-trip: unit %d: assembled %s at %#x, decoded %s at %#x",
				used, i, u.IC.Inst.Name, u.Addr, ln.Inst.Inst.Name, ln.Addr)
		}
		re, rerr := ln.Inst.Encode(ln.Ops)
		if rerr != nil {
			return fmt.Errorf("%s: round-trip: unit %d (%s): re-encode: %v", used, i, u.IC.Inst.Name, rerr)
		}
		if !bytes.Equal(re, u.Bytes) {
			return fmt.Errorf("%s: round-trip: unit %d (%s): assembled % x, re-encoded % x",
				used, i, u.IC.Inst.Name, u.Bytes, re)
		}
	}

	// Execution: machine code vs the MIR simulator on every vector.
	for i, args := range vectors {
		simMem := gmir.NewMemory()
		m := &sim.Machine{Mem: simMem}
		sres, serr := m.Run(mf, args)
		if serr != nil {
			return fmt.Errorf("%s: sim: %w", used, serr)
		}
		emuMem := gmir.NewMemory()
		e := &enc.Emulator{Codec: c, Mem: emuMem}
		eres, eerr := e.Run(img, args)
		if eerr != nil {
			return fmt.Errorf("%s: emu on vector %d %s: %w", used, i, fmtArgs(args), eerr)
		}
		if sres.HasRet != eres.HasRet {
			return fmt.Errorf("%s: vector %d %s: sim HasRet=%v, emu HasRet=%v",
				used, i, fmtArgs(args), sres.HasRet, eres.HasRet)
		}
		if sres.HasRet && sim.Adjust(sres.Ret, 64) != sim.Adjust(eres.Ret, 64) {
			return fmt.Errorf("%s: result mismatch on vector %d %s: sim=%s emu=%s",
				used, i, fmtArgs(args), sres.Ret, eres.Ret)
		}
		if sres.Flags != eres.Flags {
			return fmt.Errorf("%s: vector %d %s: sim flags %v, emu flags %v",
				used, i, fmtArgs(args), sres.Flags, eres.Flags)
		}
		if !memEqual(simMem.Snapshot(), emuMem.Snapshot()) {
			return fmt.Errorf("%s: final memory mismatch on vector %d %s", used, i, fmtArgs(args))
		}
	}
	return nil
}

// runEncode drives the encode oracle with the shared generate/check/
// shrink loop.
func runEncode(opts *Options, sum *Summary, over func() bool) error {
	pl, err := NewPipeline(opts.Target, opts.Synth)
	if err != nil {
		return err
	}
	cfg := DefaultGenConfig()
	nVec := opts.numVectors()
	encoded := 0
	for iter := 0; iter < opts.N && !over(); iter++ {
		rng := bv.NewRNG(SubSeed(opts.Seed, uint64(iter)))
		p := Gen(rng, cfg)
		cerr := CheckEncode(pl, p, VectorsFor(opts.Seed, p, nVec))
		sum.PerOracle["encode"]++
		switch {
		case cerr == nil:
			sum.Ran++
			encoded++
		case !IsFailure(cerr):
			sum.Ran++
			sum.Skipped++
		default:
			sum.Failed++
			opts.logf("encode failure (iter %d): %v", iter, cerr)
			failing := func(q *Prog) bool {
				return IsFailure(CheckEncode(pl, q, VectorsFor(opts.Seed, q, nVec)))
			}
			shrunk := Shrink(p, failing, opts.maxShrinkChecks())
			opts.logf("  shrunk %d -> %d operations", p.NumOps(), shrunk.NumOps())
			opts.save(sum, &Repro{
				Oracle: "encode",
				Target: pl.Name,
				Seed:   opts.Seed,
				Note:   firstLine(cerr.Error()),
				Prog:   shrunk.Format(),
			})
		}
	}
	opts.logf("encode: %d of %d programs reached machine code", encoded, sum.PerOracle["encode"])
	return nil
}
