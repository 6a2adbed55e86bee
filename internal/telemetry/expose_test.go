package telemetry

import (
	"bufio"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func expose(r *Registry) string {
	var sb strings.Builder
	r.WritePrometheus(&sb)
	return sb.String()
}

func TestExposeCounterGauge(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "Counts a.").Add(3)
	r.Gauge("b", "Measures b.").Set(1.5)
	got := expose(r)
	want := "# HELP a_total Counts a.\n# TYPE a_total counter\na_total 3\n" +
		"# HELP b Measures b.\n# TYPE b gauge\nb 1.5\n"
	if got != want {
		t.Fatalf("exposition:\n%q\nwant:\n%q", got, want)
	}
}

func TestExposeSortedFamiliesAndChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("z_total", "z", "k")
	v.With("b").Inc()
	v.With("a").Inc()
	r.Counter("a_total", "a").Inc()
	got := expose(r)
	ia := strings.Index(got, "# HELP a_total")
	iz := strings.Index(got, "# HELP z_total")
	if ia < 0 || iz < 0 || ia > iz {
		t.Fatalf("families not name-sorted:\n%s", got)
	}
	if strings.Index(got, `z_total{k="a"}`) > strings.Index(got, `z_total{k="b"}`) {
		t.Fatalf("children not label-sorted:\n%s", got)
	}
}

func TestExposeHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	got := expose(r)
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 2.55",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in:\n%s", want, got)
		}
	}
}

func TestExposeLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("hv_seconds", "h", "tenant", []float64{1})
	hv.With("acme").Observe(0.5)
	got := expose(r)
	for _, want := range []string{
		`hv_seconds_bucket{tenant="acme",le="1"} 1`,
		`hv_seconds_bucket{tenant="acme",le="+Inf"} 1`,
		`hv_seconds_sum{tenant="acme"} 0.5`,
		`hv_seconds_count{tenant="acme"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in:\n%s", want, got)
		}
	}
}

func TestExposeEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("esc_total", "Help with \\ and\nnewline.", "k")
	v.With("a\"b\\c\nd").Inc()
	got := expose(r)
	if !strings.Contains(got, `# HELP esc_total Help with \\ and\nnewline.`) {
		t.Fatalf("HELP not escaped:\n%s", got)
	}
	if !strings.Contains(got, `esc_total{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", got)
	}
}

func TestExposeFuncMetrics(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.CounterFunc("fc_total", "fc", func() float64 { return n })
	r.GaugeFunc("fg", "fg", func() float64 { return -2 })
	r.LabeledGaugeFunc("lg", "lg", "tenant", func(emit func(string, float64)) {
		emit("b", 2)
		emit("a", 1)
	})
	r.LabeledGaugeFunc("lz", "lz", "tenant", func(emit func(string, float64)) {})
	n++
	got := expose(r)
	for _, want := range []string{
		"# TYPE fc_total counter\nfc_total 42\n", "# TYPE fg gauge\nfg -2\n",
		`lg{tenant="a"} 1`, `lg{tenant="b"} 2`,
		"# TYPE lz gauge\n", // metadata only: no samples yet
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in:\n%s", want, got)
		}
	}
	ia := strings.Index(got, `lg{tenant="a"}`)
	ib := strings.Index(got, `lg{tenant="b"}`)
	if ia > ib {
		t.Fatalf("labeled func samples not sorted:\n%s", got)
	}
}

func TestFormatValueSpecials(t *testing.T) {
	if formatValue(math.Inf(1)) != "+Inf" || formatValue(math.Inf(-1)) != "-Inf" || formatValue(math.NaN()) != "NaN" {
		t.Fatalf("specials: %q %q %q", formatValue(math.Inf(1)), formatValue(math.Inf(-1)), formatValue(math.NaN()))
	}
	if formatValue(1) != "1" {
		t.Fatalf("integer float renders %q", formatValue(1))
	}
}

// Exposition grammar of the 0.0.4 text format, per line.
var (
	helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (NaN|[+-]?Inf|[+-]?[0-9].*)$`)
)

// ValidateExposition is the promlint-style structural check shared with the
// serving-layer tests (exported via export_test only to this package; the
// jobs package carries its own copy of the regexes).
func validateExposition(t *testing.T, body string) {
	t.Helper()
	typed := map[string]string{}
	var lastType string
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Text()
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !helpRe.MatchString(line) {
				t.Fatalf("line %d: bad HELP: %q", ln, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: bad TYPE: %q", ln, line)
			}
			if _, dup := typed[m[1]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln, m[1])
			}
			typed[m[1]] = m[2]
			lastType = m[1]
		case strings.HasPrefix(line, "#"):
			// comment: fine
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: bad sample: %q", ln, line)
			}
			name := m[1]
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if _, ok := typed[name]; !ok {
				if _, ok := typed[base]; !ok {
					t.Fatalf("line %d: sample %s has no TYPE", ln, name)
				}
			}
			_ = lastType
			if v := m[len(m)-1]; v != "NaN" && !strings.HasSuffix(v, "Inf") {
				if _, err := strconv.ParseFloat(v, 64); err != nil {
					t.Fatalf("line %d: bad value %q: %v", ln, v, err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestExpositionGrammar(t *testing.T) {
	r := NewRegistry()
	r.Counter("g1_total", "c").Inc()
	r.Gauge("g2", "g").Set(math.Inf(1))
	h := r.Histogram("g3_seconds", "h", LatencyBuckets())
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) * 1e-5)
	}
	v := r.CounterVec("g4_total", "v", "tenant")
	v.With(`we"ird\label` + "\nvalue").Inc()
	r.LabeledGaugeFunc("g5", "lg", "k", func(emit func(string, float64)) { emit("x", 1) })
	validateExposition(t, expose(r))
}

func TestExposeDeterministic(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		r.Counter(fmt.Sprintf("m%02d_total", i), "m").Add(int64(i))
	}
	if expose(r) != expose(r) {
		t.Fatal("exposition must be deterministic")
	}
}
