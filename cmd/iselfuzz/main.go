// Command iselfuzz runs the differential fuzzing harness: random gMIR
// programs through legalize → select → simulate against the gMIR
// interpreter, the greedy vs optimal selection engines against each
// other (selector-diff), mutated ISA specifications against the
// synthesis contract, and random term pairs against the SMT equivalence
// checker. Failures are shrunk to minimal reproducers and written to
// the corpus directory, where `go test ./internal/fuzz` replays them.
//
//	iselfuzz -target aarch64 -n 500 -seed 1
//	iselfuzz -oracle selector-diff -target riscv -budget 2m
//	iselfuzz -oracle smt -n 2000
//	iselfuzz -oracle all -budget 30s -corpus internal/fuzz/testdata/corpus
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"iselgen/internal/fuzz"
)

// options are the command-line settings of iselfuzz.
type options struct {
	seed      uint64
	n         int
	target    string
	oracle    string
	budget    time.Duration
	corpus    string
	synth     bool
	specSynth bool
}

// newFlags declares iselfuzz's command-line flags on a fresh flag set.
func newFlags() (*flag.FlagSet, *options) {
	cli := &options{}
	fs := flag.NewFlagSet("iselfuzz", flag.ExitOnError)
	fs.Uint64Var(&cli.seed, "seed", 1, "root random seed; every iteration derives from it deterministically")
	fs.IntVar(&cli.n, "n", 500, "iterations per oracle")
	fs.StringVar(&cli.target, "target", "aarch64", "select-diff/selector-diff target: aarch64 or riscv")
	fs.StringVar(&cli.oracle, "oracle", "select-diff", "oracle to run: select-diff, selector-diff, encode, spec, smt, or all")
	fs.DurationVar(&cli.budget, "budget", 0, "wall-clock budget (0 = unlimited)")
	fs.StringVar(&cli.corpus, "corpus", "", "directory for shrunk reproducers (also replayed by go test)")
	fs.BoolVar(&cli.synth, "synth", true, "select against a freshly synthesized library (handwritten fallback)")
	fs.BoolVar(&cli.specSynth, "specsynth", false, "differential-check accepted spec mutants (slow)")
	return fs, cli
}

func main() {
	fs, cli := newFlags()
	fs.Parse(os.Args[1:])

	opts := fuzz.Options{
		Seed:      cli.seed,
		N:         cli.n,
		Target:    cli.target,
		Oracle:    cli.oracle,
		Budget:    cli.budget,
		CorpusDir: cli.corpus,
		Synth:     cli.synth,
		SpecSynth: cli.specSynth,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	start := time.Now()
	sum, err := fuzz.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselfuzz: %v\n", err)
		os.Exit(2)
	}
	total := 0
	for o, c := range sum.PerOracle {
		fmt.Printf("%-12s %d iterations\n", o+":", c)
		total += c
	}
	el := time.Since(start)
	rate := float64(total) / el.Seconds()
	fmt.Printf("ran %d, skipped %d, failed %d in %v (%.1f iter/s)\n",
		sum.Ran, sum.Skipped, sum.Failed, el.Round(time.Millisecond), rate)
	if sum.Failed > 0 {
		for _, p := range sum.Repros {
			fmt.Printf("repro: %s\n", p)
		}
		os.Exit(1)
	}
}
