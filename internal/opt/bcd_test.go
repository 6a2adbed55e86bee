package opt

import (
	"testing"

	"repro/internal/core"
	"repro/internal/straggler"
)

func TestBCDSyncConverges(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		r := newRigOn(t, tr, 4, 8, nil, denseCfg())
		res, err := AsyncBCD(r.ac, r.d, Params{Updates: 120, Barrier: core.BSP(), SnapshotEvery: 30},
			BCDConfig{BlockSize: 4, Step: 0.9, Seed: 1}, r.fstar)
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
		res, err := AsyncBCD(r.ac, r.d, Params{Updates: 400, SnapshotEvery: 100},
			BCDConfig{BlockSize: 4, Step: 0.5, Seed: 2}, r.fstar)
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
		res, err := AsyncBCD(r.ac, r.d, Params{Updates: 400, SnapshotEvery: 100},
			BCDConfig{BlockSize: 4, Step: 0.5, Seed: 3}, r.fstar)
		if err != nil {
			t.Fatal(err)
		}
		r.assertConverged(t, res, 5)
	})
}

func TestBCDValidation(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	// zero BlockSize and Step are "use the default" (BCDConfig.defaults)
	cases := []struct {
		c       BCDConfig
		updates int
	}{
		{BCDConfig{BlockSize: -1, Step: 0.5}, 10},
		{BCDConfig{BlockSize: 999, Step: 0.5}, 10},
		{BCDConfig{BlockSize: 2, Step: -1}, 10},
		{BCDConfig{BlockSize: 2, Step: 1.5}, 10},
		{BCDConfig{BlockSize: 2, Step: 0.5}, 0},
	}
	for i, tc := range cases {
		if _, err := AsyncBCD(r.ac, r.d, Params{Updates: tc.updates}, tc.c, r.fstar); err == nil {
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
