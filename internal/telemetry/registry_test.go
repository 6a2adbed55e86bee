package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-3) // dropped: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "help"); again != c {
		t.Fatal("re-registration must return the same counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "help")
	g.Set(2.5)
	g.Add(-1.25)
	if got := g.Value(); got != 1.25 {
		t.Fatalf("gauge = %v, want 1.25", got)
	}
	g.SetInt(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "help")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 8000 {
		t.Fatalf("gauge = %v, want 8000 (lost CAS updates)", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100, math.NaN()} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5 (NaN must be dropped)", got)
	}
	cum, total, sum := h.snapshot()
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
	// le=1: 0.5, 1; le=2: +1.5; le=4: +3; +Inf: +100
	want := []int64{2, 3, 4}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum[%d] = %d, want %d", i, cum[i], w)
		}
	}
	if sum != 0.5+1+1.5+3+100 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestHistogramBoundNormalization(t *testing.T) {
	h := newHistogram([]float64{4, 1, 2, 2, math.Inf(1)})
	if len(h.bounds) != 3 || h.bounds[0] != 1 || h.bounds[2] != 4 {
		t.Fatalf("bounds = %v, want sorted deduped [1 2 4] without +Inf", h.bounds)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", PowTwoBuckets(8))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(float64(k))
			}
		}(i)
	}
	wg.Wait()
	if got := h.Count(); got != 4000 {
		t.Fatalf("count = %d, want 4000", got)
	}
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("by_kind_total", "help", "kind")
	v.With("a").Inc()
	v.With("a").Inc()
	v.With("b").Add(3)
	if v.With("a").Value() != 2 || v.With("b").Value() != 3 {
		t.Fatalf("vec children: a=%d b=%d", v.With("a").Value(), v.With("b").Value())
	}
	var seen []string
	v.Each(func(l string, c *Counter) { seen = append(seen, fmt.Sprintf("%s=%d", l, c.Value())) })
	if strings.Join(seen, ",") != "a=2,b=3" {
		t.Fatalf("vec Each = %v, want a=2,b=3 in label order", seen)
	}
	hv := r.HistogramVec("hv", "help", "k", []float64{1})
	hv.With("y").Observe(0.5)
	hv.With("x").Observe(2)
	if hv.With("y").Count() != 1 {
		t.Fatal("histogram vec child")
	}
	var sum float64
	hv.Each(func(_ string, h *Histogram) { sum += h.Sum() })
	if sum != 2.5 {
		t.Fatalf("histogram vec Each summed %v, want 2.5", sum)
	}
}

func TestFuncMetricHasNoChildren(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("f_total", "help", func() float64 { return 1 })
	defer func() {
		if recover() == nil {
			t.Fatal("a counter instrument under a func metric's name must panic")
		}
	}()
	r.Counter("f_total", "help")
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering m as a gauge after a counter must panic")
		}
	}()
	r.Gauge("m", "help")
}

func TestLabelMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("m_total", "help", "tenant")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different label name must panic")
		}
	}()
	r.CounterVec("m_total", "help", "priority")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name must panic")
		}
	}()
	r.Counter("bad-name", "help")
}

func TestBucketHelpers(t *testing.T) {
	e := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if e[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", e)
		}
	}
	p := PowTwoBuckets(5)
	want = []float64{0, 1, 2, 4, 8}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("PowTwoBuckets = %v", p)
		}
	}
	if lb := LatencyBuckets(); len(lb) != 24 || lb[0] != 1e-6 {
		t.Fatalf("LatencyBuckets = %v", lb)
	}
}

func TestDefaultRegistryIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default must be stable")
	}
	c := Default().Counter("telemetry_test_singleton_total", "test")
	if Default().Counter("telemetry_test_singleton_total", "test") != c {
		t.Fatal("Default registry must get-or-create")
	}
}
