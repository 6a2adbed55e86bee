package opt

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/la"
)

func evalDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Generate(dataset.SynthConfig{
		Name: "eval", Rows: 200, Cols: 10, NNZPerRow: 6, Noise: 0, Binary: true, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAccuracyAtPlantedModel(t *testing.T) {
	d := evalDataset(t)
	// the reference least-squares solution on noiseless ±1 labels should
	// classify nearly everything correctly
	w, _, err := ReferenceOptimum(d)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(d, w)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("accuracy %v at reference optimum", acc)
	}
	// the zero model predicts +1 everywhere: accuracy = fraction of +1s
	zeroAcc, err := Accuracy(d, la.NewVec(d.NumCols()))
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	for _, y := range d.Y {
		if y == 1 {
			pos++
		}
	}
	want := float64(pos) / float64(d.NumRows())
	if math.Abs(zeroAcc-want) > 1e-12 {
		t.Fatalf("zero-model accuracy %v, want %v", zeroAcc, want)
	}
}

func TestPredictDims(t *testing.T) {
	d := evalDataset(t)
	if _, err := Predict(d, la.Vec{1}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	scores, err := Predict(d, la.NewVec(d.NumCols()))
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != d.NumRows() {
		t.Fatalf("scores len %d", len(scores))
	}
}

func TestTrainTestSplit(t *testing.T) {
	d := evalDataset(t)
	train, test, err := dataset.TrainTestSplit(d, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if train.NumRows()+test.NumRows() != d.NumRows() {
		t.Fatalf("split sizes %d + %d != %d", train.NumRows(), test.NumRows(), d.NumRows())
	}
	if test.NumRows() != 50 {
		t.Fatalf("test rows %d, want 50", test.NumRows())
	}
	if train.NumCols() != d.NumCols() || test.NumCols() != d.NumCols() {
		t.Fatal("split changed dimensionality")
	}
	// deterministic given the seed
	train2, _, err := dataset.TrainTestSplit(d, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !la.Equal(train.Y, train2.Y, 0) {
		t.Fatal("split not deterministic")
	}
	// invalid fractions rejected
	for _, f := range []float64{0, 1, -0.5, 1.5} {
		if _, _, err := dataset.TrainTestSplit(d, f, 1); err == nil {
			t.Fatalf("fraction %v accepted", f)
		}
	}
}

// TestGeneralizes: training on the train split generalizes to the held-out
// test split (end-to-end sanity of the whole pipeline).
func TestGeneralizes(t *testing.T) {
	r := newRig(t, 2, 4, nil)
	train, test, err := dataset.TrainTestSplit(r.d, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := ReferenceOptimum(train)
	if err != nil {
		t.Fatal(err)
	}
	// the least-squares objective is the mean squared residual
	rmse := func(d *dataset.Dataset, w la.Vec) float64 { return math.Sqrt(Objective(d, LeastSquares{}, w)) }
	trainRMSE, testRMSE := rmse(train, w), rmse(test, w)
	zeroRMSE := rmse(test, la.NewVec(test.NumCols()))
	if testRMSE >= zeroRMSE {
		t.Fatalf("no generalization: test %v vs zero-model %v", testRMSE, zeroRMSE)
	}
	// train and test errors should be the same order of magnitude (either
	// may be smaller by sampling luck on a low-noise problem)
	if trainRMSE > 3*testRMSE || testRMSE > 3*trainRMSE {
		t.Fatalf("train RMSE %v and test RMSE %v diverge", trainRMSE, testRMSE)
	}
}
