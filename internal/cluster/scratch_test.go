package cluster

import "testing"

func TestScratchVecReuse(t *testing.T) {
	env := NewEnv(0, 1, nil)
	v := env.Scratch().Vec("g", 16)
	if len(v) != 16 {
		t.Fatalf("len %d", len(v))
	}
	for i := range v {
		v[i] = float64(i + 1)
	}
	w := env.Scratch().Vec("g", 16)
	if &w[0] != &v[0] {
		t.Fatal("same key+size must reuse the buffer")
	}
	for i, x := range w {
		if x != 0 {
			t.Fatalf("scratch vec not zeroed at %d: %v", i, x)
		}
	}
	// size change reallocates; different key is independent
	u := env.Scratch().Vec("g", 8)
	if len(u) != 8 {
		t.Fatalf("len %d", len(u))
	}
	other := env.Scratch().Vec("h", 16)
	if &other[0] == &v[0] {
		t.Fatal("different keys must not share buffers")
	}
}

func TestScratchAllocFree(t *testing.T) {
	env := NewEnv(0, 1, nil)
	env.Scratch().Vec("g", 64)
	if allocs := testing.AllocsPerRun(100, func() {
		v := env.Scratch().Vec("g", 64)
		v[0] = 1
	}); allocs != 0 {
		t.Errorf("steady-state scratch access allocates %v per run, want 0", allocs)
	}
}
