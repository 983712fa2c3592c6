package riscv

import (
	"sync"
	"testing"
)

// TestSpecBuiltOnce checks the spec memo: repeated and concurrent Spec
// calls return the text a fresh build produces, without rebuilding it.
func TestSpecBuiltOnce(t *testing.T) {
	want := buildSpec()
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Spec()
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("concurrent call %d returned different spec text", i)
		}
	}
	if Spec() != want {
		t.Fatal("repeated call returned different spec text")
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = Spec() }); allocs != 0 {
		t.Fatalf("Spec allocates %.0f times per call; the text should be built once", allocs)
	}
}
