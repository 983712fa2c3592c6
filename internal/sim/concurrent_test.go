package sim_test

import (
	"sync"
	"testing"

	"iselgen/internal/bench"
	"iselgen/internal/gmir"
	"iselgen/internal/isa/aarch64"
	"iselgen/internal/isa/riscv"
	"iselgen/internal/isel"
	"iselgen/internal/mir"
	"iselgen/internal/sim"
	"iselgen/internal/term"
)

type simCase struct {
	name string
	f    *mir.Func
	w    bench.Workload
}

func (c simCase) run() (sim.Result, error) {
	mem := gmir.NewMemory()
	if c.w.InitMem != nil {
		c.w.InitMem(mem)
	}
	return (&sim.Machine{Mem: mem}).Run(c.f, c.w.Args)
}

// TestConcurrentRunsShareCompiledSteps runs the suite's selected
// functions (loops, branches, flags, loads and stores on both targets)
// from eight goroutines at once. The targets are fresh, so the
// goroutines race to compile each instruction's step program and then
// share it; every result must equal a sequential run's afterwards.
func TestConcurrentRunsShareCompiledSteps(t *testing.T) {
	ab := term.NewBuilder()
	a64, err := aarch64.Load(ab)
	if err != nil {
		t.Fatal(err)
	}
	rb := term.NewBuilder()
	rv, err := riscv.Load(rb)
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]*isel.Backend{
		"aarch64": isel.NewA64Backends(ab, a64).Handwritten,
		"riscv":   isel.NewRVBackends(rb, rv).Handwritten,
	}
	var cases []simCase
	for tgt, be := range backends {
		for _, w := range bench.Suite(1) {
			f := w.Build()
			isel.Prepare(f, tgt)
			mf, rep := be.Select(f)
			if rep.Fallback {
				t.Fatalf("%s/%s: fallback: %s", tgt, w.Name, rep.FallbackReason)
			}
			cases = append(cases, simCase{name: tgt + "/" + w.Name, f: mf, w: w})
		}
	}

	const workers = 8
	got := make([][]sim.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range cases {
				// Stagger the start so goroutines meet on different
				// instructions' first compile.
				c := cases[(i+g)%len(cases)]
				res, err := c.run()
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], res)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for i, c := range cases {
		want, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for g := 0; g < workers; g++ {
			if r := got[g][(i-g+len(cases)*workers)%len(cases)]; r != want {
				t.Fatalf("%s: goroutine %d got %+v, sequential %+v", c.name, g, r, want)
			}
		}
	}
}
