package straggler

import (
	"sync"
	"testing"
	"time"
)

func TestNone(t *testing.T) {
	var m None
	if m.Delay(3, time.Second) != 0 {
		t.Fatal("None produced delay")
	}
	if m.Name() != "none" {
		t.Fatalf("name %q", m.Name())
	}
}

func TestControlledDelayOnlyTargetWorker(t *testing.T) {
	m := ControlledDelay{Worker: 2, Intensity: 1.0}
	if d := m.Delay(2, 100*time.Millisecond); d != 100*time.Millisecond {
		t.Fatalf("delay = %v, want 100ms", d)
	}
	for w := 0; w < 8; w++ {
		if w == 2 {
			continue
		}
		if m.Delay(w, time.Second) != 0 {
			t.Fatalf("worker %d delayed", w)
		}
	}
}

func TestControlledDelayIntensities(t *testing.T) {
	base := 200 * time.Millisecond
	for _, in := range []float64{0, 0.3, 0.6, 1.0} {
		m := ControlledDelay{Worker: 0, Intensity: in}
		want := time.Duration(float64(base) * in)
		if d := m.Delay(0, base); d != want {
			t.Fatalf("intensity %v: delay %v, want %v", in, d, want)
		}
	}
}

func TestProductionClusterPaperCounts(t *testing.T) {
	// For 32 workers the paper assigns 6 uniform stragglers + 2 long tail.
	p, err := NewProductionCluster(32, 123)
	if err != nil {
		t.Fatal(err)
	}
	uni, lt := stragglers(p)
	if len(uni) != 6 {
		t.Fatalf("uniform stragglers = %d, want 6", len(uni))
	}
	if len(lt) != 2 {
		t.Fatalf("long-tail stragglers = %d, want 2", len(lt))
	}
}

func TestProductionClusterBands(t *testing.T) {
	p, err := NewProductionCluster(32, 5)
	if err != nil {
		t.Fatal(err)
	}
	uni, lt := stragglers(p)
	base := 100 * time.Millisecond
	isStraggler := map[int]bool{}
	for _, w := range uni {
		isStraggler[w] = true
		for i := 0; i < 50; i++ {
			d := p.Delay(w, base)
			f := float64(d) / float64(base)
			if f < 1.5-1e-9 || f > 2.5+1e-9 {
				t.Fatalf("uniform straggler %d factor %v outside [1.5,2.5]", w, f)
			}
		}
	}
	for _, w := range lt {
		isStraggler[w] = true
		for i := 0; i < 50; i++ {
			d := p.Delay(w, base)
			f := float64(d) / float64(base)
			if f < 2.5-1e-9 || f > 10+1e-9 {
				t.Fatalf("long-tail straggler %d factor %v outside [2.5,10]", w, f)
			}
		}
	}
	for w := 0; w < 32; w++ {
		if !isStraggler[w] && p.Delay(w, base) != 0 {
			t.Fatalf("non-straggler %d delayed", w)
		}
	}
}

func TestProductionClusterSeedDeterminesAssignment(t *testing.T) {
	p1, _ := NewProductionCluster(32, 9)
	p2, _ := NewProductionCluster(32, 9)
	u1, l1 := stragglers(p1)
	u2, l2 := stragglers(p2)
	if len(u1) != len(u2) || len(l1) != len(l2) {
		t.Fatal("same seed, different counts")
	}
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Fatal("same seed, different uniform assignment")
		}
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("same seed, different long-tail assignment")
		}
	}
}

func TestProductionClusterRejectsBadCount(t *testing.T) {
	if _, err := NewProductionCluster(0, 1); err == nil {
		t.Fatal("zero workers accepted")
	}
}

func TestProductionClusterOutOfRangeWorker(t *testing.T) {
	p, _ := NewProductionCluster(4, 1)
	if p.Delay(-1, time.Second) != 0 || p.Delay(99, time.Second) != 0 {
		t.Fatal("out-of-range worker delayed")
	}
}

func TestProductionClusterConcurrentUse(t *testing.T) {
	p, _ := NewProductionCluster(16, 2)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = p.Delay(w, time.Millisecond)
			}
		}(w)
	}
	wg.Wait() // race detector validates safety
}

func TestSmallClusterStillHasStragglers(t *testing.T) {
	// 8 workers → 2 stragglers, 0-1 long tail (rounding)
	p, err := NewProductionCluster(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	uni, lt := stragglers(p)
	if len(uni)+len(lt) != 2 {
		t.Fatalf("8 workers should yield 2 stragglers, got %d", len(uni)+len(lt))
	}
}

// stragglers returns the indices of workers that straggle, and which of
// those are long-tail.
func stragglers(p *ProductionCluster) (uniform, longTail []int) {
	for w, b := range p.bands {
		switch {
		case b.hi == 0:
		case b.hi > pcsUniformHi:
			longTail = append(longTail, w)
		default:
			uniform = append(uniform, w)
		}
	}
	return uniform, longTail
}
