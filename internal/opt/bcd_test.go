package opt

import (
	"testing"

	"repro/internal/core"
	"repro/internal/straggler"
)

func TestBCDSyncConverges(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		r := newRigOn(t, tr, 4, 8, nil, denseCfg())
		res, err := AsyncBCD(r.ac, r.d, BCDParams{
			BlockSize: 4, Step: 0.9, Updates: 120, Barrier: core.BSP(), Snapshot: 30, Seed: 1,
		}, r.fstar)
		if err != nil {
			t.Fatal(err)
		}
		r.assertConverged(t, res, 10)
		if res.Trace.Algorithm != "BCD" {
			t.Fatalf("algo %q", res.Trace.Algorithm)
		}
	})
}

func TestBCDAsyncConverges(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		r := newRigOn(t, tr, 4, 8, nil, denseCfg())
		res, err := AsyncBCD(r.ac, r.d, BCDParams{
			BlockSize: 4, Step: 0.5, Updates: 400, Snapshot: 100, Seed: 2,
		}, r.fstar)
		if err != nil {
			t.Fatal(err)
		}
		r.assertConverged(t, res, 10)
		if res.Trace.Algorithm != "BCD-async" {
			t.Fatalf("algo %q", res.Trace.Algorithm)
		}
	})
}

func TestBCDAsyncUnderStraggler(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		r := newRigOn(t, tr, 4, 8, straggler.ControlledDelay{Worker: 1, Intensity: 2}, denseCfg())
		res, err := AsyncBCD(r.ac, r.d, BCDParams{
			BlockSize: 4, Step: 0.5, Updates: 400, Snapshot: 100, Seed: 3,
		}, r.fstar)
		if err != nil {
			t.Fatal(err)
		}
		r.assertConverged(t, res, 5)
	})
}

func TestBCDValidation(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	cases := []BCDParams{
		{BlockSize: 0, Step: 0.5, Updates: 10},
		{BlockSize: 999, Step: 0.5, Updates: 10},
		{BlockSize: 2, Step: 0, Updates: 10},
		{BlockSize: 2, Step: 1.5, Updates: 10},
		{BlockSize: 2, Step: 0.5, Updates: 0},
	}
	for i, p := range cases {
		if _, err := AsyncBCD(r.ac, r.d, p, r.fstar); err == nil {
			t.Fatalf("case %d: invalid params accepted", i)
		}
	}
}

func TestApplyBlockStep(t *testing.T) {
	w := []float64{0, 0, 0, 0}
	applyBlockStep(w, []int32{1, 3}, []float64{2, 4}, []float64{1, 2}, 0.5)
	if w[1] != -1 || w[3] != -1 {
		t.Fatalf("w = %v", w)
	}
	if w[0] != 0 || w[2] != 0 {
		t.Fatalf("out-of-block coordinates touched: %v", w)
	}
	// zero curvature must not divide by zero
	applyBlockStep(w, []int32{0}, []float64{5}, []float64{0}, 1)
	if w[0] != 0 {
		t.Fatalf("zero-curvature coordinate moved: %v", w)
	}
}
