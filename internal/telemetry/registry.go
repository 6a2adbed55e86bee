package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. Inc/Add are lock-free and
// allocation-free.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are dropped (counters only move up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as float64 bits in one
// atomic word. Set/Add are lock-free and allocation-free.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt replaces the value with an integer.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Add shifts the value by d (CAS loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// kind is a family's exposition TYPE.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string { return [...]string{"counter", "gauge", "histogram"}[k] }

// family is one named metric with its children (one per label value; the
// unlabeled case is the single child keyed "").
type family struct {
	name   string
	help   string
	kind   kind
	label  string    // label name for Vec/labeled families ("" = unlabeled)
	bounds []float64 // histogram upper bounds

	mu       sync.RWMutex
	children map[string]any // label value -> *Counter | *Gauge | *Histogram

	// collect, when set, makes this a func metric: it has no children and
	// emits its samples at scrape time.
	collect func(emit func(label string, v float64))
}

// child returns the metric for one label value, creating it on first use.
// The read path is an RLock + map hit; hot callers cache the result.
func (f *family) child(labelValue string) any {
	f.mu.RLock()
	c := f.children[labelValue]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	if f.collect != nil {
		panic(fmt.Sprintf("telemetry: %s: func metric has no children", f.name))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.children[labelValue]; c != nil {
		return c
	}
	var n any
	switch f.kind {
	case kindCounter:
		n = &Counter{}
	case kindGauge:
		n = &Gauge{}
	case kindHistogram:
		n = newHistogram(f.bounds)
	}
	if f.children == nil {
		f.children = map[string]any{}
	}
	f.children[labelValue] = n
	return n
}

// each calls fn for every child in label-value order, outside the lock (fn
// may create children).
func (f *family) each(fn func(label string, c any)) {
	f.mu.RLock()
	labels := make([]string, 0, len(f.children))
	children := make(map[string]any, len(f.children))
	for l, c := range f.children {
		labels = append(labels, l)
		children[l] = c
	}
	f.mu.RUnlock()
	sort.Strings(labels)
	for _, l := range labels {
		fn(l, children[l])
	}
}

// Registry is a name-keyed set of metric families. Registration is
// get-or-create: registering the same name with the same shape returns the
// existing metric, so package-level instrumentation can never double-count;
// re-registering with a different type or label name panics (a programming
// error, caught by any test that touches both sites).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

var std = NewRegistry()

// Default returns the process-global registry the internal layers (core,
// opt, store, cluster) register into at init.
func Default() *Registry { return std }

func (r *Registry) family(name, help string, k kind, label string, bounds []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	if label != "" && !validName(label) {
		panic(fmt.Sprintf("telemetry: metric %q: invalid label name %q", name, label))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != k || f.label != label {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s{%s}, was %s{%s}",
				name, k, label, f.kind, f.label))
		}
		// func metrics rebind to the latest closure (a rebuilt owner's
		// snapshot must win over the dead one's)
		return f
	}
	f := &family{name: name, help: help, kind: k, label: label, bounds: bounds}
	r.fams[name] = f
	return f
}

// validName checks the Prometheus metric/label name charset
// [a-zA-Z_:][a-zA-Z0-9_:]* (colons for metric names only; harmless to
// accept for labels we never generate).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, "", nil).child("").(*Counter)
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, kindGauge, "", nil).child("").(*Gauge)
}

// Histogram registers (or returns) an unlabeled histogram with the given
// upper bounds (the first registration's buckets win).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.family(name, help, kindHistogram, "", buckets).child("").(*Histogram)
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a single-label counter family.
func (r *Registry) CounterVec(name, help, label string) CounterVec {
	return CounterVec{r.family(name, help, kindCounter, label, nil)}
}

// With returns the counter for one label value, creating it on first use.
// Cache the result on hot paths.
func (v CounterVec) With(value string) *Counter { return v.f.child(value).(*Counter) }

// Each calls fn for every child, in label-value order.
func (v CounterVec) Each(fn func(value string, c *Counter)) {
	v.f.each(func(l string, c any) { fn(l, c.(*Counter)) })
}

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a single-label histogram family.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) HistogramVec {
	return HistogramVec{r.family(name, help, kindHistogram, label, buckets)}
}

// With returns the histogram for one label value, creating it on first use.
func (v HistogramVec) With(value string) *Histogram { return v.f.child(value).(*Histogram) }

// Each calls fn for every child, in label-value order.
func (v HistogramVec) Each(fn func(value string, h *Histogram)) {
	v.f.each(func(l string, h any) { fn(l, h.(*Histogram)) })
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time (for owners that already keep an authoritative count).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.family(name, help, kindCounter, "", nil).collect = func(emit func(string, float64)) { emit("", fn()) }
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, kindGauge, "", nil).collect = func(emit func(string, float64)) { emit("", fn()) }
}

// LabeledGaugeFunc registers a gauge family whose label set is dynamic:
// collect is called at scrape time and emits one sample per label value.
func (r *Registry) LabeledGaugeFunc(name, help, label string, collect func(emit func(labelValue string, v float64))) {
	r.family(name, help, kindGauge, label, nil).collect = collect
}
