// Command iselgen synthesizes an instruction selection rule library for
// a target from its formal ISA specification — the paper's main
// pipeline. It prints the Table-II-style synthesis breakdown and can
// emit the generated rules in the TableGen-flavoured format of Listing 1.
//
// Usage:
//
//	iselgen -target aarch64|riscv|x86 [-rules out.td] [-inputs N]
//	        [-patterns N] [-workers N] [-summary]
//	iselgen -spec newisa.spec [...]        (inline DSL spec retargeting)
//	iselgen -spec edited.spec -incremental -from old.rules [...]
//
// With -incremental, the library saved by a previous run (-rules) is
// diffed against the current spec by instruction content fingerprint:
// rules whose supporting instructions are unchanged are re-verified and
// reused without any solver work, and synthesis runs only for the delta.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"iselgen/internal/core"
	"iselgen/internal/harness"
	"iselgen/internal/incr"
	"iselgen/internal/isa"
	"iselgen/internal/isa/x86"
	"iselgen/internal/isel"
	"iselgen/internal/obs"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/spec"
	"iselgen/internal/term"
)

// options are the command-line settings of iselgen.
type options struct {
	target      string
	specFile    string
	rulesOut    string
	tdOut       string
	inputs      int
	maxPatterns int
	workers     int
	summary     bool
	incremental bool
	fromPath    string
	traceOut    string
}

// newFlags declares iselgen's command-line flags on a fresh flag set.
func newFlags() (*flag.FlagSet, *options) {
	cli := &options{}
	fs := flag.NewFlagSet("iselgen", flag.ExitOnError)
	fs.StringVar(&cli.target, "target", "aarch64", "target: aarch64, riscv, or x86")
	fs.StringVar(&cli.specFile, "spec", "", "synthesize for an inline DSL spec file instead of a builtin target")
	fs.StringVar(&cli.rulesOut, "rules", "", "write the loadable rule library to this file")
	fs.StringVar(&cli.tdOut, "td", "", "write the TableGen-style rule listing to this file")
	fs.IntVar(&cli.inputs, "inputs", 0, "test inputs per sequence (0 = default)")
	fs.IntVar(&cli.maxPatterns, "patterns", 0, "limit considered patterns (0 = all)")
	fs.IntVar(&cli.workers, "workers", 0, "matcher threads (0 = ISEL_WORKERS or NumCPU)")
	fs.BoolVar(&cli.summary, "summary", false, "print the library composition summary")
	fs.BoolVar(&cli.incremental, "incremental", false, "resynthesize incrementally from a prior artifact (-from)")
	fs.StringVar(&cli.fromPath, "from", "", "prior rule-library artifact to diff against (with -incremental)")
	fs.StringVar(&cli.traceOut, "trace", "", "write a Chrome trace-event JSON of the run to this file")
	return fs, cli
}

func main() {
	fs, cli := newFlags()
	fs.Parse(os.Args[1:])

	cfg := core.DefaultConfig()
	if cli.inputs > 0 {
		cfg.TestInputs = cli.inputs
	}
	cfg.Workers = core.ResolveWorkers(cli.workers)
	if cli.traceOut != "" {
		o := obs.New()
		obs.SetDefault(o) // spec parse/symexec spans
		cfg.Obs = o
		defer writeTrace(o, cli.traceOut)
	}

	if cli.incremental {
		if cli.fromPath == "" {
			fatal(fmt.Errorf("-incremental requires -from <artifact>"))
		}
		runIncremental(cli.target, cli.specFile, cli.fromPath, cfg, cli.maxPatterns, cli.summary, cli.rulesOut, cli.tdOut)
		return
	}

	var lib *rules.Library
	var tgt *isa.Target
	var tableII string
	t0 := time.Now()
	if cli.specFile != "" {
		name := strings.TrimSuffix(filepath.Base(cli.specFile), filepath.Ext(cli.specFile))
		var err error
		lib, tgt, tableII, err = synthInline(name, cli.specFile, cfg, cli.maxPatterns)
		if err != nil {
			fatal(err)
		}
		printResults(lib, tgt, name, t0, tableII, cli.summary, cli.rulesOut, cli.tdOut)
		return
	}
	switch cli.target {
	case "aarch64", "riscv":
		var s *harness.Setup
		var err error
		if cli.target == "aarch64" {
			s, err = harness.NewAArch64()
		} else {
			s, err = harness.NewRISCV()
		}
		if err != nil {
			fatal(err)
		}
		lib = s.Synthesize(cfg, cli.maxPatterns)
		tgt = s.ISA
		tableII = s.TableII(lib)
	case "x86":
		b := term.NewBuilder()
		xtgt, err := x86.Load(b)
		if err != nil {
			fatal(err)
		}
		synth := core.New(b, xtgt, cfg)
		synth.BuildPool()
		lib = rules.NewLibrary("x86")
		pats := x86Patterns(cli.maxPatterns)
		synth.Synthesize(pats, lib)
		tgt = xtgt
		tableII = fmt.Sprintf("x86: %d sequences, %d rules (index %d, smt %d)\n",
			synth.Stats.Sequences, lib.Len(), synth.Stats.IndexRules, synth.Stats.SMTRules)
	default:
		fatal(fmt.Errorf("unknown target %q", cli.target))
	}

	printResults(lib, tgt, cli.target, t0, tableII, cli.summary, cli.rulesOut, cli.tdOut)
}

// loadFor materializes the builder, target, and pattern corpus for any
// of the three target kinds (builtin harness target, x86, inline spec)
// without running synthesis — the incremental path decides what to
// synthesize itself.
func loadFor(target, specFile string, maxPatterns int) (*term.Builder, *isa.Target, string, []*pattern.Pattern, error) {
	if specFile != "" {
		name := strings.TrimSuffix(filepath.Base(specFile), filepath.Ext(specFile))
		src, err := os.ReadFile(specFile)
		if err != nil {
			return nil, nil, "", nil, err
		}
		if _, err := spec.Check(string(src)); err != nil {
			return nil, nil, "", nil, err
		}
		b := term.NewBuilder()
		tgt, err := isa.LoadTarget(b, name, string(src), nil, 4)
		if err != nil {
			return nil, nil, "", nil, err
		}
		return b, tgt, name, harness.CorpusPatterns(name, maxPatterns), nil
	}
	switch target {
	case "aarch64", "riscv":
		var s *harness.Setup
		var err error
		if target == "aarch64" {
			s, err = harness.NewAArch64()
		} else {
			s, err = harness.NewRISCV()
		}
		if err != nil {
			return nil, nil, "", nil, err
		}
		return s.B, s.ISA, target, harness.CorpusPatterns(target, maxPatterns), nil
	case "x86":
		b := term.NewBuilder()
		tgt, err := x86.Load(b)
		if err != nil {
			return nil, nil, "", nil, err
		}
		return b, tgt, target, x86Patterns(maxPatterns), nil
	default:
		return nil, nil, "", nil, fmt.Errorf("unknown target %q", target)
	}
}

// runIncremental is the -incremental flow: parse the prior artifact's
// provenance, diff it against the current spec, reuse what survives,
// synthesize the rest, and report the reuse accounting.
func runIncremental(target, specFile, fromPath string, cfg core.Config, maxPatterns int, summary bool, rulesOut, tdOut string) {
	t0 := time.Now()
	b, tgt, name, pats, err := loadFor(target, specFile, maxPatterns)
	if err != nil {
		fatal(err)
	}
	text, err := os.ReadFile(fromPath)
	if err != nil {
		fatal(err)
	}
	art, err := incr.ParseArtifact(string(text))
	if err != nil {
		fatal(err)
	}
	lib, rep, err := incr.Resynthesize(b, tgt, art, incr.Options{Config: cfg, Patterns: pats})
	if err != nil {
		fatal(err)
	}
	d := rep.Delta
	report := fmt.Sprintf(
		"delta: %d changed, %d added, %d removed, %d unchanged instructions\n"+
			"rules: %d in artifact, %d reused (%.0f%%), %d stale (%d failed re-verify), %d resynthesized, %d improved\n"+
			"work:  %d SMT queries, full pool rebuilt: %v\n",
		len(d.Changed), len(d.Added), len(d.Removed), d.Unchanged,
		rep.ArtifactRules, rep.Reused, 100*rep.ReusedFraction(),
		rep.Stale, rep.ReverifyFailed, rep.Resynthesized, rep.Improved,
		rep.SMTQueries, rep.FullPool)
	printResults(lib, tgt, name, t0, report, summary, rulesOut, tdOut)
}

// synthInline runs the pipeline for a DSL spec file — the retargeting
// flow of examples/newisa, from the CLI. The spec is validated up front
// (spec.Check is the same entry point the iseld daemon's inline path
// uses), then synthesized against the shared benchmark pattern corpus.
func synthInline(name, path string, cfg core.Config, maxPatterns int) (*rules.Library, *isa.Target, string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, "", err
	}
	insts, err := spec.Check(string(src))
	if err != nil {
		return nil, nil, "", err
	}
	b := term.NewBuilder()
	tgt, err := isa.LoadTarget(b, name, string(src), nil, 4)
	if err != nil {
		return nil, nil, "", err
	}
	synth := core.New(b, tgt, cfg)
	synth.BuildPool()
	lib := rules.NewLibrary(name)
	pats := harness.CorpusPatterns(name, maxPatterns)
	synth.Synthesize(pats, lib)
	tableII := fmt.Sprintf("%s: %d instructions, %d sequences, %d rules (index %d, smt %d)\n",
		name, len(insts), synth.Stats.Sequences, lib.Len(),
		synth.Stats.IndexRules, synth.Stats.SMTRules)
	return lib, tgt, tableII, nil
}

func printResults(lib *rules.Library, tgt *isa.Target, target string, t0 time.Time, tableII string, summary bool, rulesOut, tdOut string) {
	fmt.Printf("synthesized %d rules for %s in %v\n\n", lib.Len(), target,
		time.Since(t0).Round(time.Millisecond))
	fmt.Println(tableII)

	if summary {
		st := lib.Summarize()
		fmt.Printf("by source: %v\nby sequence length: %v\nby pattern size: %v\nrules with immediate constraints: %d\n",
			st.BySource, st.BySeqLen, st.ByPatternSize, st.RulesWithImmCs)
	}
	if rulesOut != "" {
		// SaveLibraryFor stamps every instruction's content fingerprint
		// into the artifact header, which is what -incremental -from
		// diffs against after a spec edit.
		if err := os.WriteFile(rulesOut, []byte(isel.SaveLibraryFor(lib, tgt)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote loadable rule library to %s\n", rulesOut)
	}
	if tdOut != "" {
		if err := os.WriteFile(tdOut, []byte(lib.Emit()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote TableGen-style listing to %s\n", tdOut)
	}
}

// x86Patterns builds the 32-bit pattern set for the §IX discussion
// experiment (the comparator's simplified spec has no multiplication and
// no 64-bit arithmetic).
func x86Patterns(max int) []*pattern.Pattern {
	var out []*pattern.Pattern
	for _, p := range harness.SeedPatterns() {
		if p.Root.Ty.Bits == 32 || (p.Root.Op != 0 && p.Root.Ty.Bits == 0) {
			out = append(out, p)
		}
	}
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// writeTrace dumps the recorded spans as Chrome trace-event JSON
// (chrome://tracing / Perfetto).
func writeTrace(o *obs.Obs, path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := o.Trace.WriteTraceJSON(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote trace (%d spans) to %s\n", len(o.Trace.Snapshot()), path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iselgen:", err)
	os.Exit(1)
}
