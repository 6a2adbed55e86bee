package opt

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/la"
)

// Predict returns the raw scores X·w for every row of d.
func Predict(d *dataset.Dataset, w la.Vec) (la.Vec, error) {
	if d.NumCols() != len(w) {
		return nil, fmt.Errorf("opt: predict dim %d != model dim %d", d.NumCols(), len(w))
	}
	scores := la.NewVec(d.NumRows())
	d.X.MatVec(w, scores)
	return scores, nil
}

// Accuracy computes binary classification accuracy for ±1 labels using
// sign(x·w) as the prediction. Zero scores count as +1.
func Accuracy(d *dataset.Dataset, w la.Vec) (float64, error) {
	scores, err := Predict(d, w)
	if err != nil {
		return 0, err
	}
	if len(scores) == 0 {
		return 0, fmt.Errorf("opt: accuracy of empty dataset")
	}
	correct := 0
	for i, s := range scores {
		pred := 1.0
		if s < 0 {
			pred = -1
		}
		if pred == d.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(scores)), nil
}
