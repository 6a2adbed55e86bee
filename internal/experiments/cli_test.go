package experiments

import (
	"os"
	"slices"
	"strings"
	"testing"
)

func TestRunUnknownID(t *testing.T) {
	var sb strings.Builder
	if err := Run(tinyOpts(), "fig99", &sb); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRunTable2(t *testing.T) {
	var sb strings.Builder
	if err := Run(tinyOpts(), "table2", &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rcv1-like") {
		t.Fatalf("table2 output: %s", sb.String())
	}
}

func TestRunExtSSPSweep(t *testing.T) {
	out := sweepOutput(t, "ext-sspsweep")
	for _, want := range []string{"BSP", "ASP", "max_staleness"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep output missing %q", want)
		}
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	o := tinyOpts()
	o.CSVDir = dir
	var sb strings.Builder
	if err := Run(o, "fig2", &sb); err != nil {
		t.Fatal(err)
	}
	entries, err := osReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 { // 3 datasets × 2 algorithms
		t.Fatalf("csv files = %d: %v", len(entries), entries)
	}
	for _, name := range entries {
		if !strings.HasSuffix(name, ".csv") || strings.ContainsRune(name, '/') {
			t.Fatalf("bad csv name %q", name)
		}
	}
}

func osReadDir(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, de := range des {
		out = append(out, de.Name())
	}
	return out, nil
}

// TestIDsAllRunnable: IDs lists the nine sweeps once each, and every
// artefact id of the paper's evaluation resolves to the sweep that prints it.
func TestIDsAllRunnable(t *testing.T) {
	want := []string{"table2", "fig2", "fig3", "fig5", "fig7", "ablation-broadcast",
		"ablation-localreduce", "ablation-barrier", "ablation-staleness"}
	if got := IDs(); !slices.Equal(got, want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	sweepOf := map[string]string{
		"table2": "table2", "fig2": "fig2", "fig3": "fig3", "fig4": "fig3",
		"fig5": "fig5", "fig6": "fig5", "fig7": "fig7", "fig8": "fig7", "table3": "fig7",
		"ablation-broadcast": "ablation-broadcast", "ablation-localreduce": "ablation-localreduce",
		"ablation-barrier": "ablation-barrier", "ext-sspsweep": "ablation-barrier",
		"ablation-staleness": "ablation-staleness", "ext-staleness-dist": "ablation-staleness",
	}
	if ids := artefactIDs(); len(ids) != len(sweepOf) {
		t.Fatalf("sweeps answer to %v, want the %d ids of %v", ids, len(sweepOf), sweepOf)
	}
	for id, sweep := range sweepOf {
		s := lookup(id)
		if s == nil || s.ids[0] != sweep {
			t.Errorf("%s resolves to %v, want the %s sweep", id, s, sweep)
		}
	}
}
