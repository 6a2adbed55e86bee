package telemetry

import (
	"bytes"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in the Prometheus text exposition
// format (0.0.4): families sorted by name, each with its HELP and TYPE
// line, children sorted by label value, histograms as cumulative _bucket
// series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b bytes.Buffer
	for _, f := range fams {
		f.expose(&b)
	}
	_, _ = w.Write(b.Bytes())
}

func (f *family) expose(b *bytes.Buffer) {
	b.WriteString("# HELP ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(f.help))
	b.WriteString("\n# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(f.kind.String())
	b.WriteByte('\n')
	if f.collect != nil {
		type sample struct {
			label string
			v     float64
		}
		var samples []sample
		f.collect(func(label string, v float64) {
			samples = append(samples, sample{label, v})
		})
		sort.Slice(samples, func(i, j int) bool { return samples[i].label < samples[j].label })
		for _, s := range samples {
			writeSample(b, f.name, f.label, s.label, s.v)
		}
		return
	}
	f.each(func(l string, c any) {
		switch c := c.(type) {
		case *Counter:
			writeSample(b, f.name, f.label, l, float64(c.Value()))
		case *Gauge:
			writeSample(b, f.name, f.label, l, c.Value())
		case *Histogram:
			writeHistogram(b, f.name, f.label, l, c)
		}
	})
}

func writeSample(b *bytes.Buffer, name, label, labelValue string, v float64) {
	b.WriteString(name)
	if label != "" {
		b.WriteByte('{')
		b.WriteString(label)
		b.WriteString(`="`)
		b.WriteString(EscapeLabel(labelValue))
		b.WriteString(`"}`)
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

func writeHistogram(b *bytes.Buffer, name, label, labelValue string, h *Histogram) {
	cum, total, sum := h.snapshot()
	bucket := func(le string, n int64) {
		b.WriteString(name)
		b.WriteString("_bucket{")
		if label != "" {
			b.WriteString(label)
			b.WriteString(`="`)
			b.WriteString(EscapeLabel(labelValue))
			b.WriteString(`",`)
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteString(`"} `)
		b.WriteString(strconv.FormatInt(n, 10))
		b.WriteByte('\n')
	}
	for i, bound := range h.bounds {
		bucket(formatValue(bound), cum[i])
	}
	bucket("+Inf", total)
	writeSample(b, name+"_sum", label, labelValue, sum)
	writeSample(b, name+"_count", label, labelValue, float64(total))
}

// formatValue renders a sample value: shortest round-trip float, with the
// exposition spellings of the specials (+Inf, -Inf, NaN).
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// EscapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func EscapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return labelEscaper.Replace(v)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// escapeHelp escapes a HELP string: backslash and newline (quotes stay).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	return helpEscaper.Replace(v)
}
