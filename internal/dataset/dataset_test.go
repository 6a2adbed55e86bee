package dataset

import (
	"strings"
	"testing"

	"repro/internal/la"
)

func tiny(t *testing.T) *Dataset {
	t.Helper()
	d, err := Generate(SynthConfig{Name: "t", Rows: 20, Cols: 6, NNZPerRow: 3, Noise: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateShapes(t *testing.T) {
	d := tiny(t)
	if d.NumRows() != 20 || d.NumCols() != 6 {
		t.Fatalf("shape %dx%d", d.NumRows(), d.NumCols())
	}
	if d.X.NNZ() != 20*3 {
		t.Fatalf("NNZ = %d, want 60", d.X.NNZ())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := SynthConfig{Name: "t", Rows: 15, Cols: 8, NNZPerRow: 4, Noise: 0.2, Seed: 42}
	d1, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	if !la.Equal(d1.Y, d2.Y, 0) {
		t.Fatal("labels differ across identical seeds")
	}
	for i := 0; i < 15; i++ {
		if !la.Equal(dense(d1.X.Row(i)), dense(d2.X.Row(i)), 0) {
			t.Fatalf("row %d differs across identical seeds", i)
		}
	}
	d3, err := Generate(SynthConfig{Name: "t", Rows: 15, Cols: 8, NNZPerRow: 4, Noise: 0.2, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if la.Equal(d1.Y, d3.Y, 0) {
		t.Fatal("different seeds produced identical labels")
	}
}

func TestGenerateBinaryLabels(t *testing.T) {
	d, err := Generate(SynthConfig{Name: "b", Rows: 50, Cols: 5, NNZPerRow: 5, Binary: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, y := range d.Y {
		if y != 1 && y != -1 {
			t.Fatalf("label %d = %v, want ±1", i, y)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	cases := []SynthConfig{
		{Name: "bad", Rows: 0, Cols: 3, NNZPerRow: 1},
		{Name: "bad", Rows: 3, Cols: 0, NNZPerRow: 1},
		{Name: "bad", Rows: 3, Cols: 3, NNZPerRow: 0},
		{Name: "bad", Rows: 3, Cols: 3, NNZPerRow: 4},
		{Name: "bad", Rows: 3, Cols: 3, NNZPerRow: 2, Noise: -1},
	}
	for i, c := range cases {
		if _, err := Generate(c); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestSplitCoversAllRows(t *testing.T) {
	d := tiny(t)
	parts, err := Split(d, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 6 {
		t.Fatalf("got %d partitions", len(parts))
	}
	covered := 0
	prevHi := 0
	for i, p := range parts {
		if p.Index != i {
			t.Fatalf("partition %d has index %d", i, p.Index)
		}
		if p.RowLo != prevHi {
			t.Fatalf("gap before partition %d: lo=%d prev hi=%d", i, p.RowLo, prevHi)
		}
		if p.NumRows() != p.X.NumRows || p.NumRows() != len(p.Y) {
			t.Fatalf("partition %d inconsistent sizes", i)
		}
		covered += p.NumRows()
		prevHi = p.RowHi
	}
	if covered != d.NumRows() {
		t.Fatalf("covered %d of %d rows", covered, d.NumRows())
	}
	// content check: partition rows equal dataset rows
	for _, p := range parts {
		for local := 0; local < p.NumRows(); local++ {
			g := p.GlobalRow(local)
			if !la.Equal(dense(p.X.Row(local)), dense(d.X.Row(g)), 0) {
				t.Fatalf("partition row %d != dataset row %d", local, g)
			}
			if p.Y[local] != d.Y[g] {
				t.Fatalf("partition label %d != dataset label %d", local, g)
			}
		}
	}
}

func TestSplitErrors(t *testing.T) {
	d := tiny(t)
	if _, err := Split(d, 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
	if _, err := Split(d, d.NumRows()+1); err == nil {
		t.Fatal("more partitions than rows accepted")
	}
}

func TestLIBSVMRoundTrip(t *testing.T) {
	d := tiny(t)
	var sb strings.Builder
	if err := WriteLIBSVM(&sb, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLIBSVM(strings.NewReader(sb.String()), "t2", d.NumCols())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != d.NumRows() || got.NumCols() != d.NumCols() {
		t.Fatalf("round trip shape %dx%d", got.NumRows(), got.NumCols())
	}
	for i := 0; i < d.NumRows(); i++ {
		if !la.Equal(dense(got.X.Row(i)), dense(d.X.Row(i)), 1e-12) {
			t.Fatalf("row %d differs after round trip", i)
		}
	}
	if !la.Equal(got.Y, d.Y, 1e-12) {
		t.Fatal("labels differ after round trip")
	}
}

func TestReadLIBSVMParsing(t *testing.T) {
	in := "1 1:0.5 3:2\n# comment\n\n-1 2:1\n"
	d, err := ReadLIBSVM(strings.NewReader(in), "p", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 2 || d.NumCols() != 3 {
		t.Fatalf("shape %dx%d, want 2x3", d.NumRows(), d.NumCols())
	}
	if !la.Equal(dense(d.X.Row(0)), la.Vec{0.5, 0, 2}, 0) {
		t.Fatalf("row 0 = %v", dense(d.X.Row(0)))
	}
	if d.Y[0] != 1 || d.Y[1] != -1 {
		t.Fatalf("labels %v", d.Y)
	}
}

func TestReadLIBSVMUnsortedIndices(t *testing.T) {
	d, err := ReadLIBSVM(strings.NewReader("2 3:3 1:1\n"), "u", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !la.Equal(dense(d.X.Row(0)), la.Vec{1, 0, 3}, 0) {
		t.Fatalf("row = %v", dense(d.X.Row(0)))
	}
}

func TestReadLIBSVMErrors(t *testing.T) {
	cases := []string{
		"x 1:1\n",     // bad label
		"1 a:1\n",     // bad index
		"1 0:1\n",     // index < 1
		"1 1:zz\n",    // bad value
		"1 nocolon\n", // missing colon
	}
	for i, in := range cases {
		if _, err := ReadLIBSVM(strings.NewReader(in), "bad", 0); err == nil {
			t.Fatalf("case %d accepted: %q", i, in)
		}
	}
	if _, err := ReadLIBSVM(strings.NewReader("1 5:1\n"), "over", 3); err == nil {
		t.Fatal("feature index beyond declared cols accepted")
	}
}

func TestStats(t *testing.T) {
	d := tiny(t)
	s := d.Stats()
	if s.Rows != 20 || s.Cols != 6 || s.NNZ != 60 {
		t.Fatalf("stats %+v", s)
	}
	if s.Density <= 0 || s.Density > 1 {
		t.Fatalf("density %v", s.Density)
	}
	if s.SizeMB <= 0 {
		t.Fatalf("size %v", s.SizeMB)
	}
}

func TestTable2Configs(t *testing.T) {
	cfgs := Table2(ScaleTiny, 7)
	if len(cfgs) != 3 {
		t.Fatalf("got %d configs", len(cfgs))
	}
	names := map[string]bool{}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		names[c.Name] = true
		d, err := Generate(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"rcv1-like", "mnist8m-like", "epsilon-like"} {
		if !names[want] {
			t.Fatalf("missing dataset %s", want)
		}
	}
	// rcv1-like must be sparse, the others dense
	rcv1, _ := Generate(cfgs[0])
	if rcv1.X.Density() > 0.1 {
		t.Fatalf("rcv1-like density %v too high", rcv1.X.Density())
	}
	eps, _ := Generate(cfgs[2])
	if eps.X.Density() != 1.0 {
		t.Fatalf("epsilon-like density %v, want dense", eps.X.Density())
	}
}

func TestScalesMonotone(t *testing.T) {
	tinyCfg := RCV1Like(ScaleTiny, 1)
	small := RCV1Like(ScaleSmall, 1)
	full := RCV1Like(ScaleFull, 1)
	if !(tinyCfg.Rows < small.Rows && small.Rows < full.Rows) {
		t.Fatalf("rows not monotone: %d %d %d", tinyCfg.Rows, small.Rows, full.Rows)
	}
}

// dense expands a sparse row into a freshly allocated dense vector.
func dense(s la.SparseVec) la.Vec {
	v := la.NewVec(s.N)
	s.AxpyDense(1, v)
	return v
}
