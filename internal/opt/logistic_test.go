package opt

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rdd"
)

// logisticRig sets up a separable classification problem.
func logisticRig(t *testing.T) (*core.Context, *dataset.Dataset) {
	t.Helper()
	c, err := cluster.NewLocal(cluster.Config{NumWorkers: 4, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	d, err := dataset.Generate(dataset.SynthConfig{
		Name: "cls", Rows: 200, Cols: 12, NNZPerRow: 8, Noise: 0.1, Binary: true, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	rctx := rdd.NewContext(c)
	if _, err := rctx.Distribute(d, 8); err != nil {
		t.Fatal(err)
	}
	ac := core.New(rctx)
	t.Cleanup(ac.Close)
	return ac, d
}

// TestLogisticASGDClassifies: ASGD on the logistic loss must reach high
// training accuracy on a (nearly) separable problem — the engine is
// loss-agnostic end to end.
func TestLogisticASGDClassifies(t *testing.T) {
	ac, d := logisticRig(t)
	res, err := ASGD(ac, d, Params{
		Loss:          Logistic{},
		Step:          Constant{A: 0.5},
		SampleFrac:    0.3,
		Updates:       800,
		SnapshotEvery: 200,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(d, res.W)
	if err != nil {
		t.Fatal(err)
	}
	// the asynchronous dynamics plateau this rig at ~0.865-0.87 training
	// accuracy (well above the 0.5 chance level the loss-agnosticity claim
	// is about); 0.85 keeps margin without asserting a level the
	// interleaving does not reliably reach
	if acc < 0.85 {
		t.Fatalf("training accuracy %v, want >= 0.85", acc)
	}
	// the trace records raw logistic loss (fstar = 0): it must decrease
	first := res.Trace.Points[0].Error
	last := res.Trace.FinalError()
	if last >= first {
		t.Fatalf("logistic loss did not decrease: %v → %v", first, last)
	}
}

// TestLogisticSAGAClassifies exercises historical gradients with a
// non-quadratic loss (the gradient at an old model is recomputed, so any
// differentiable loss works).
func TestLogisticSAGAClassifies(t *testing.T) {
	ac, d := logisticRig(t)
	res, err := ASAGA(ac, d, Params{
		Loss:          Logistic{},
		Step:          Constant{A: 0.3},
		SampleFrac:    0.3,
		Updates:       800,
		SnapshotEvery: 200,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(d, res.W)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Fatalf("training accuracy %v", acc)
	}
}

// TestRidgeASGDShrinks: the ridge penalty must yield a smaller-norm model
// than the unregularized run.
func TestRidgeASGDShrinks(t *testing.T) {
	r := newRig(t, 2, 4, nil)
	base := Params{
		Step: Scaled{Base: InvSqrt{A: 0.08}, Factor: 2}, SampleFrac: 0.4,
		Updates: 400, SnapshotEvery: 100,
	}
	plain, err := ASGD(r.ac, r.d, base, r.fstar)
	if err != nil {
		t.Fatal(err)
	}
	reg := base
	reg.Loss = Composite{Inner: LeastSquares{}, L2: 5}
	ridge, err := ASGD(r.ac, r.d, reg, r.fstar)
	if err != nil {
		t.Fatal(err)
	}
	if norm2(ridge.W) >= norm2(plain.W) {
		t.Fatalf("ridge norm %v not below plain norm %v", norm2(ridge.W), norm2(plain.W))
	}
}

func norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}
