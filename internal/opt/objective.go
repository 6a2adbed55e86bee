package opt

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dataset"
	"repro/internal/la"
)

// ObjectiveSpec is the declarative, wire-friendly description of a
// composite objective:
//
//	{"loss": "logistic", "l2": 0.01, "l1": 0.001}
//
// Loss names the smooth core (least-squares default, or logistic); L2 and
// L1 are the elastic-net coefficients, amortized per sample over the mean
// objective. The same struct parameterizes the facade (SolveConfig.
// Objective) and the jobs HTTP API (Spec.Objective), so both describe
// objectives identically. Resolve maps it onto a Loss: the bare loss, or a
// Composite when either penalty is present.
type ObjectiveSpec struct {
	Loss string  `json:"loss,omitempty"`
	L2   float64 `json:"l2,omitempty"`
	L1   float64 `json:"l1,omitempty"`
}

// IsZero reports a fully-unset spec (JSON omitzero hook; an unset objective
// falls back to whatever Loss the caller configured directly).
func (o ObjectiveSpec) IsZero() bool { return o == ObjectiveSpec{} }

// Validate checks the spec without building the loss.
func (o ObjectiveSpec) Validate() error {
	_, err := o.Resolve()
	return err
}

// Resolve builds the Loss the spec describes.
func (o ObjectiveSpec) Resolve() (Loss, error) {
	var inner Loss
	switch strings.ToLower(o.Loss) {
	case "", "least-squares", "ls":
		inner = LeastSquares{}
	case "logistic":
		inner = Logistic{}
	default:
		return nil, fmt.Errorf("opt: unknown objective loss %q (least-squares, logistic)", o.Loss)
	}
	if o.L2 < 0 || math.IsNaN(o.L2) || math.IsInf(o.L2, 0) {
		return nil, fmt.Errorf("opt: objective l2 %v must be finite and non-negative", o.L2)
	}
	if o.L1 < 0 || math.IsNaN(o.L1) || math.IsInf(o.L1, 0) {
		return nil, fmt.Errorf("opt: objective l1 %v must be finite and non-negative", o.L1)
	}
	if o.L1 > 0 || o.L2 > 0 {
		return Composite{Inner: inner, L2: o.L2, L1: o.L1}, nil
	}
	return inner, nil
}

// Key is a canonical cache key: equal keys describe the same objective
// (loss-name aliases collapsed). Used by the serving layer to cache one
// reference optimum per (dataset, objective).
func (o ObjectiveSpec) Key() string {
	name := strings.ToLower(o.Loss)
	if name == "" || name == "ls" {
		name = "least-squares"
	}
	return fmt.Sprintf("%s|l2=%g|l1=%g", name, o.L2, o.L1)
}

// ReferenceOptimumFor computes F(w*) for an arbitrary composite objective —
// the generalization of ReferenceOptimum beyond plain least squares. Plain
// least squares keeps the normal-equations/CG fast path; everything else is
// solved by FISTA with adaptive (gradient) restart — O'Donoghue & Candès,
// arXiv:1204.3982 — and a Lipschitz step from a power-iteration bound on
// λmax(XᵀX). The result serves as the f(w*) baseline of error traces, so it
// is computed to well below trace resolution rather than machine precision.
func ReferenceOptimumFor(d *dataset.Dataset, loss Loss) (w la.Vec, fstar float64, err error) {
	if _, isLS := loss.(LeastSquares); isLS || loss == nil {
		return ReferenceOptimum(d)
	}
	l2, l1 := loss.Penalties()
	lin := bare(loss)
	n := d.NumRows()
	if n == 0 {
		return la.NewVec(d.NumCols()), 0, nil
	}
	// Lipschitz constant of the smooth mean gradient:
	// L = curv·λmax(XᵀX)/n + l2, with λmax over-estimated slightly so the
	// 1/L step stays safe.
	lip := lin.Curvature()*powerLambdaMax(d.X)/float64(n) + l2
	if lip <= 0 || math.IsNaN(lip) || math.IsInf(lip, 0) {
		return nil, 0, fmt.Errorf("opt: reference optimum: degenerate Lipschitz estimate %g", lip)
	}
	w, _ = proxGradient(d, lin, l2, l1, lip)
	return w, Objective(d, loss, w), nil
}

// proxGradient runs ReferenceOptimumFor's FISTA from w = 0 with step 1/lip
// and returns the minimizer and the iterations it took. Momentum restarts
// whenever a step points uphill, so a badly conditioned objective converges
// at the accelerated linear rate instead of oscillating into maxIter.
func proxGradient(d *dataset.Dataset, lin Loss, l2, l1, lip float64) (la.Vec, int) {
	const (
		maxIter = 4000
		tol     = 1e-12
	)
	n, cols := d.NumRows(), d.NumCols()
	w, prev := la.NewVec(cols), la.NewVec(cols)
	yv := la.NewVec(cols)   // FISTA extrapolation point
	grad := la.NewVec(cols) // smooth mean gradient at yv
	resid := la.NewVec(n)   // row-wise x_i·y (then GradCoeff)
	t := 1.0
	for iter := 1; iter <= maxIter; iter++ {
		// smooth mean gradient at yv: (1/n)·Xᵀc + l2·yv, c_i = ℓ'(x_i·yv, y_i)
		d.X.MatVec(yv, resid)
		for i := 0; i < n; i++ {
			resid[i] = lin.GradCoeff(resid[i], d.Y[i]) / float64(n)
		}
		d.X.MatTVec(resid, grad)
		if l2 > 0 {
			la.Axpy(l2, yv, grad)
		}
		w, prev = prev, w
		// ascent > 0: the step w − prev has a component along the gradient
		// mapping lip·(yv − w), i.e. it points uphill
		var maxStep, maxW, ascent float64
		for j := range w {
			w[j] = SoftThreshold(yv[j]-grad[j]/lip, l1/lip)
			step := w[j] - prev[j]
			if s := math.Abs(step); s > maxStep {
				maxStep = s
			}
			if a := math.Abs(w[j]); a > maxW {
				maxW = a
			}
			ascent += (yv[j] - w[j]) * step
		}
		if maxStep <= tol*(1+maxW) {
			return w, iter
		}
		tn := 0.5 * (1 + math.Sqrt(1+4*t*t))
		beta := (t - 1) / tn
		t = tn
		if ascent > 0 {
			t, beta = 1, 0
		}
		for j := range yv {
			yv[j] = w[j] + beta*(w[j]-prev[j])
		}
	}
	return w, maxIter
}

// powerLambdaMax over-estimates λmax(XᵀX) by power iteration on the Gram
// operator v ← Xᵀ(Xv). Its estimates rise toward λmax from below; it stops
// when two agree to 1e-4 relative (at most 1000 iterations) and pads by 1%,
// which then covers the rest of the gap: a safe Lipschitz bound.
func powerLambdaMax(m *la.CSR) float64 {
	v := la.NewVec(m.NumCols)
	for j := range v {
		v[j] = 1 + 0.01*float64(j%7) // deterministic, not orthogonal to the top eigvec
	}
	xv := la.NewVec(m.NumRows)
	var lam float64
	for iter := 0; iter < 1000; iter++ {
		m.MatVec(v, xv)
		m.MatTVec(xv, v)
		nrm := la.Norm2(v)
		if nrm == 0 {
			return 0
		}
		la.Scale(1/nrm, v)
		if math.Abs(nrm-lam) <= 1e-4*nrm {
			return nrm * 1.01
		}
		lam = nrm
	}
	return lam * 1.01
}
