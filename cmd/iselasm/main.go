// Command iselasm assembles, disassembles, and runs machine code for
// any specified target — builtin (riscv, aarch64, x86) or a DSL spec
// file with encoding clauses. The assembler, decoder, and emulator are
// all derived from the spec's encoding and effect clauses; no
// per-target code is involved.
//
// Usage:
//
//	iselasm -target riscv prog.s                 # assemble: listing + hex
//	iselasm -target riscv -d "9300 3100"         # disassemble hex bytes
//	iselasm -target riscv -d @image.hex          # ... from a file
//	iselasm -target riscv -run -args 40,2 prog.s # assemble and execute
//	iselasm -target examples/newisa/zetacore.spec prog.s
//
// With -run, arguments land in r0, r1, ... (override with -params) and
// the result is read from the register named by -ret (default r0) when
// execution falls off the end of the image.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"iselgen/internal/bv"
	"iselgen/internal/enc"
	"iselgen/internal/isa"
	"iselgen/internal/isa/aarch64"
	"iselgen/internal/isa/riscv"
	"iselgen/internal/isa/x86"
	"iselgen/internal/spec"
	"iselgen/internal/term"
)

// options are the command-line settings of iselasm.
type options struct {
	target  string
	disasm  string
	run     bool
	argList string
	params  string
	retReg  string
	base    uint64
}

// newFlags declares iselasm's command-line flags on a fresh flag set.
func newFlags() (*flag.FlagSet, *options) {
	cli := &options{}
	fs := flag.NewFlagSet("iselasm", flag.ExitOnError)
	fs.StringVar(&cli.target, "target", "riscv", "target: riscv, aarch64, x86, or a path to a .spec file")
	fs.StringVar(&cli.disasm, "d", "", "disassemble hex bytes (literal, or @file)")
	fs.BoolVar(&cli.run, "run", false, "assemble and execute on the decoding emulator")
	fs.StringVar(&cli.argList, "args", "", "comma-separated integer arguments for -run")
	fs.StringVar(&cli.params, "params", "", "registers receiving -args (default r0,r1,...)")
	fs.StringVar(&cli.retReg, "ret", "r0", "register read as the result after -run")
	fs.Uint64Var(&cli.base, "base", enc.Base, "load address")
	return fs, cli
}

func main() {
	fs, cli := newFlags()
	fs.Parse(os.Args[1:])

	tgt, err := loadTarget(cli.target)
	if err != nil {
		fatal(err)
	}
	c, err := enc.NewCodec(tgt)
	if err != nil {
		fatal(err)
	}

	if cli.disasm != "" {
		code, err := parseHex(cli.disasm)
		if err != nil {
			fatal(err)
		}
		for _, ln := range c.Disassemble(code, cli.base) {
			fmt.Printf("%#8x:  %-12s %s\n", ln.Addr, enc.HexBytes(ln.Bytes), ln.Text)
		}
		return
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: iselasm [-target T] [-d hex | [-run] prog.s]")
		os.Exit(2)
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	img, err := enc.ParseAsm(c, string(src), cli.base)
	if err != nil {
		fatal(err)
	}

	if !cli.run {
		for _, u := range img.Units {
			fmt.Printf("%#8x:  %-12s %s\n", u.Addr, enc.HexBytes(u.Bytes), c.Format(u.IC, u.Ops))
		}
		fmt.Printf("image: %d bytes\n%s\n", len(img.Code), enc.HexBytes(img.Code))
		return
	}

	args, err := parseArgs(cli.argList)
	if err != nil {
		fatal(err)
	}
	if cli.params == "" {
		for i := range args {
			img.ParamRegs = append(img.ParamRegs, i)
		}
	} else {
		for _, f := range strings.Split(cli.params, ",") {
			r, err := parseReg(strings.TrimSpace(f))
			if err != nil {
				fatal(err)
			}
			img.ParamRegs = append(img.ParamRegs, r)
		}
	}
	if img.RetReg, err = parseReg(cli.retReg); err != nil {
		fatal(err)
	}
	e := &enc.Emulator{Codec: c}
	res, err := e.Run(img, args)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ret = %s (%d instructions)\n", res.Ret, res.Insts)
}

// loadTarget resolves a builtin target name or reads a spec file.
func loadTarget(name string) (*isa.Target, error) {
	b := term.NewBuilder()
	switch name {
	case "riscv":
		return riscv.Load(b)
	case "aarch64":
		return aarch64.Load(b)
	case "x86":
		return x86.Load(b)
	}
	src, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("iselasm: %q is not a builtin target and not a readable spec file: %w", name, err)
	}
	if _, err := spec.Check(string(src)); err != nil {
		return nil, err
	}
	tname := strings.TrimSuffix(filepath.Base(name), filepath.Ext(name))
	return isa.LoadTarget(b, tname, string(src), nil, 4)
}

func parseHex(s string) ([]byte, error) {
	if strings.HasPrefix(s, "@") {
		data, err := os.ReadFile(s[1:])
		if err != nil {
			return nil, err
		}
		s = string(data)
	}
	clean := strings.Map(func(r rune) rune {
		if strings.ContainsRune(" \t\r\n", r) {
			return -1
		}
		return r
	}, s)
	clean = strings.TrimPrefix(clean, "0x")
	return hex.DecodeString(clean)
}

func parseArgs(s string) ([]bv.BV, error) {
	var out []bv.BV
	if s == "" {
		return out, nil
	}
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if v, err := strconv.ParseInt(f, 0, 64); err == nil {
			out = append(out, bv.NewInt(64, v))
			continue
		}
		u, err := strconv.ParseUint(f, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("iselasm: bad argument %q", f)
		}
		out = append(out, bv.New(64, u))
	}
	return out, nil
}

func parseReg(s string) (int, error) {
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("iselasm: bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("iselasm: bad register %q", s)
	}
	return n, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iselasm:", err)
	os.Exit(1)
}
