package cluster

import "testing"

func TestScratchDeltaReuse(t *testing.T) {
	env := NewEnv(0, 1, nil)
	a := env.Scratch().Delta("g", 16)
	if a.Dim() != 16 {
		t.Fatalf("dim %d", a.Dim())
	}
	if env.Scratch().Delta("g", 16) != a {
		t.Fatal("same key+size must reuse the accumulator")
	}
	// size change reallocates; different key is independent
	if b := env.Scratch().Delta("g", 8); b == a || b.Dim() != 8 {
		t.Fatalf("size change kept the accumulator (dim %d)", b.Dim())
	}
	if env.Scratch().Delta("h", 16) == a {
		t.Fatal("different keys must not share accumulators")
	}
}

func TestScratchAllocFree(t *testing.T) {
	env := NewEnv(0, 1, nil)
	env.Scratch().Delta("g", 64)
	if allocs := testing.AllocsPerRun(100, func() {
		env.Scratch().Delta("g", 64).Reset()
	}); allocs != 0 {
		t.Errorf("steady-state scratch access allocates %v per run, want 0", allocs)
	}
}
