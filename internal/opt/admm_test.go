package opt

import (
	"testing"

	"repro/internal/core"
	"repro/internal/straggler"
)

func TestADMMSyncConverges(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		r := newRigOn(t, tr, 4, 8, nil, denseCfg())
		res, err := ADMM(r.ac, r.d, Params{Updates: 40, Barrier: core.BSP(), SnapshotEvery: 10}, ADMMConfig{Rho: 1}, r.fstar)
		if err != nil {
			t.Fatal(err)
		}
		r.assertConverged(t, res, 50) // ADMM with exact local solves converges fast
		if res.Trace.Algorithm != "ADMM" {
			t.Fatalf("algo %q", res.Trace.Algorithm)
		}
	})
}

func TestADMMAsyncConverges(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		r := newRigOn(t, tr, 4, 8, nil, denseCfg())
		res, err := ADMM(r.ac, r.d, Params{Updates: 80, SnapshotEvery: 20}, ADMMConfig{Rho: 1}, r.fstar) // default barrier: ASP
		if err != nil {
			t.Fatal(err)
		}
		r.assertConverged(t, res, 20)
		if res.Trace.Algorithm != "ADMM-async" {
			t.Fatalf("algo %q", res.Trace.Algorithm)
		}
	})
}

func TestADMMAsyncUnderStraggler(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		r := newRigOn(t, tr, 4, 8, straggler.ControlledDelay{Worker: 0, Intensity: 2}, denseCfg())
		res, err := ADMM(r.ac, r.d, Params{Updates: 80, SnapshotEvery: 20}, ADMMConfig{Rho: 1}, r.fstar)
		if err != nil {
			t.Fatal(err)
		}
		// unloaded runs reduce error 50x+; 5x keeps headroom for the rare
		// straggler-heavy interleaving under full-suite load
		r.assertConverged(t, res, 5)
	})
}

func TestADMMValidation(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	if _, err := ADMM(r.ac, r.d, Params{Updates: 0}, ADMMConfig{}, r.fstar); err == nil {
		t.Fatal("zero rounds accepted")
	}
}

func TestADMMRhoSensitivity(t *testing.T) {
	// any positive rho must still converge (ADMM is famously insensitive)
	for _, rho := range []float64{0.1, 1, 10} {
		r := newRig(t, 2, 4, nil)
		res, err := ADMM(r.ac, r.d, Params{Updates: 60, Barrier: core.BSP(), SnapshotEvery: 20}, ADMMConfig{Rho: rho}, r.fstar)
		if err != nil {
			t.Fatalf("rho=%v: %v", rho, err)
		}
		r.assertConverged(t, res, 10)
	}
}
