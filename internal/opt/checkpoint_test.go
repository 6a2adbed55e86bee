package opt

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/la"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cp := &Checkpoint{
		Algorithm: "ASGD",
		W:         la.Vec{1, 2, 3},
		Updates:   42,
		AvgHist:   la.Vec{0.1, 0.2, 0.3},
	}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != "ASGD" || got.Updates != 42 {
		t.Fatalf("fields lost: %+v", got)
	}
	if !la.Equal(got.W, cp.W, 0) || !la.Equal(got.AvgHist, cp.AvgHist, 0) {
		t.Fatal("vectors lost")
	}
}

// TestCheckpointExtendedStateRoundTrip covers the solver-specific state
// maps through the binary codec.
func TestCheckpointExtendedStateRoundTrip(t *testing.T) {
	cp := &Checkpoint{
		Algorithm: "svrg",
		W:         la.Vec{1, 2, 3},
		Updates:   7,
		Vecs: map[string]la.Vec{
			"mu":     {0.5, -0.25, 0},
			"anchor": {1, 2, 3},
		},
		Ints: map[string]int64{"dispatches": 42, "round": 9},
	}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != "svrg" || got.Updates != 7 {
		t.Fatalf("fields lost: %+v", got)
	}
	if !la.Equal(got.Vec("mu"), cp.Vecs["mu"], 0) || !la.Equal(got.Vec("anchor"), cp.Vecs["anchor"], 0) {
		t.Fatal("state vectors lost")
	}
	if got.Int("dispatches") != 42 || got.Int("round") != 9 {
		t.Fatalf("counters lost: %+v", got.Ints)
	}
	if got.AvgHist != nil {
		t.Fatal("phantom history decoded")
	}
}

// TestCheckpointRejectsGob: the pre-binary gob format is retired — such a
// blob (like anything else without the ACP1 magic) is an error, not a
// checkpoint.
func TestCheckpointRejectsGob(t *testing.T) {
	cp := &Checkpoint{Algorithm: "ASGD", W: la.Vec{4, 5}, Updates: 3, AvgHist: la.Vec{1, 1}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadCheckpoint(&buf); err == nil {
		t.Fatalf("gob blob loaded as a checkpoint: %+v", got)
	}
}

// FuzzLoadCheckpoint hardens the load path: arbitrary input must either
// fail cleanly or produce a structurally valid checkpoint that re-saves.
// Lengths are validated against the remaining input before any allocation.
func FuzzLoadCheckpoint(f *testing.F) {
	valid := &Checkpoint{
		Algorithm: "asgd",
		W:         la.Vec{1, 2, 3},
		Updates:   5,
		AvgHist:   la.Vec{0, 1, 0},
		Vecs:      map[string]la.Vec{"vel": {0.1, 0.2, 0.3}},
		Ints:      map[string]int64{"round": 2},
	}
	var bin bytes.Buffer
	if err := SaveCheckpoint(&bin, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	var gobBuf bytes.Buffer
	if err := gob.NewEncoder(&gobBuf).Encode(valid); err != nil {
		f.Fatal(err)
	}
	f.Add(gobBuf.Bytes())
	f.Add([]byte("ACP1"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := LoadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, []byte("ACP1")) {
			t.Fatalf("input without the ACP1 magic loaded: %+v", cp)
		}
		if err := cp.Validate(); err != nil {
			t.Fatalf("loaded checkpoint fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := SaveCheckpoint(&buf, cp); err != nil {
			t.Fatalf("loaded checkpoint does not re-save: %v", err)
		}
	})
}

func TestCheckpointValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, &Checkpoint{}); err == nil {
		t.Fatal("empty checkpoint accepted")
	}
	if err := SaveCheckpoint(&buf, &Checkpoint{W: la.Vec{1}, Updates: -1}); err == nil {
		t.Fatal("negative clock accepted")
	}
	if err := SaveCheckpoint(&buf, &Checkpoint{W: la.Vec{1}, AvgHist: la.Vec{1, 2}}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := LoadCheckpoint(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage decoded")
	}
}

// TestResumeFromCheckpoint: a run split in two via a checkpoint must end at
// least as converged as its own first half.
func TestResumeFromCheckpoint(t *testing.T) {
	r := newRig(t, 4, 8, nil)
	p := Params{
		Step: Scaled{Base: InvSqrt{A: 0.08}, Factor: 4}, SampleFrac: 0.4,
		Updates: 300, SnapshotEvery: 100,
	}
	first, err := ASGD(r.ac, r.d, p, r.fstar)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, &Checkpoint{Algorithm: first.Trace.Algorithm, W: first.W.Clone(), Updates: 300}); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p2 := p
	p2.InitW = cp.W
	second, err := ASGD(r.ac, r.d, p2, r.fstar)
	if err != nil {
		t.Fatal(err)
	}
	e1 := Objective(r.d, LeastSquares{}, first.W) - r.fstar
	e2 := Objective(r.d, LeastSquares{}, second.W) - r.fstar
	if e2 > e1*1.05 {
		t.Fatalf("resumed run regressed: %v → %v", e1, e2)
	}
	// and a resumed run starts from the checkpointed model
	if second.Trace.Points[0].Error > e1*1.5 {
		t.Fatalf("resume did not warm-start: first point error %v vs checkpoint error %v",
			second.Trace.Points[0].Error, e1)
	}
}

func TestInitWDimMismatch(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	p := Params{Step: Constant{A: 0.01}, SampleFrac: 0.5, Updates: 1, InitW: la.Vec{1, 2}}
	if _, err := ASGD(r.ac, r.d, p, r.fstar); err == nil {
		t.Fatal("InitW dim mismatch accepted")
	}
	if _, err := SAGA(r.ac, r.d, p, r.fstar); err == nil {
		t.Fatal("SAGA InitW dim mismatch accepted")
	}
}
