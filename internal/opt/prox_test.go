package opt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
)

// TestSoftThresholdIdentities exercises the two algebraic identities the
// lazy prox-at-settle path rests on (to rounding: the folded expressions
// reassociate sums and products).
func TestSoftThresholdIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 2000; i++ {
		v := rng.NormFloat64() * 3
		a, b := rng.Float64(), rng.Float64()
		c := rng.Float64() + 0.1
		if got, want := SoftThreshold(SoftThreshold(v, a), b), SoftThreshold(v, a+b); math.Abs(got-want) > 1e-12 {
			t.Fatalf("composition: soft(soft(%v,%v),%v)=%v, soft(v,a+b)=%v", v, a, b, got, want)
		}
		if got, want := c*SoftThreshold(v, a), SoftThreshold(c*v, c*a); math.Abs(got-want) > 1e-12 {
			t.Fatalf("scaling: c·soft(%v,%v)=%v, soft(cv,ca)=%v", v, a, got, want)
		}
	}
	if SoftThreshold(0.5, 1) != 0 || SoftThreshold(-0.5, 1) != 0 {
		t.Fatal("values inside the threshold must map to exact zero")
	}
	if SoftThreshold(2, -1) != 2 {
		t.Fatal("non-positive threshold must be the identity")
	}
}

// TestProxOf resolves the objective → prox mapping.
func TestProxOf(t *testing.T) {
	if !ProxOf(LeastSquares{}).IsIdentity() {
		t.Fatal("smooth loss must carry the identity prox")
	}
	if !ProxOf(Composite{Inner: LeastSquares{}, L2: 0.1}).IsIdentity() {
		t.Fatal("ridge is smooth: identity prox")
	}
	p := ProxOf(Composite{Inner: LeastSquares{}, L1: 0.5})
	if p.IsIdentity() {
		t.Fatal("ℓ1 composite must carry the soft-threshold prox")
	}
	if got := p.Call1(2, 1); got != SoftThreshold(2, 0.5) {
		t.Fatalf("L1Prox.Call1 = %v, want soft(2, 0.5)", got)
	}
}

// elasticNetParams is the shared ASGD configuration of the prox
// path-equivalence runs.
func elasticNetParams(l2, l1 float64) Params {
	return Params{
		Loss: Composite{Inner: LeastSquares{}, L2: l2, L1: l1},
		Step: InvSqrt{A: 0.1}, SampleFrac: 0.3, Updates: 150, SnapshotEvery: 50,
	}
}

// TestSparsePathMatchesDenseElasticNet pins prox-at-settle to the eager
// dense math: on a fixed seed the lazily-settled sparse path must match
// the per-update dense shrink→step→threshold sequence to rounding (the
// deferred products and threshold sums telescope, reassociating the
// floating-point ops — hence 1e-9, not bitwise).
func TestSparsePathMatchesDenseElasticNet(t *testing.T) {
	cases := []struct {
		name   string
		l2, l1 float64
	}{
		{"elastic-net", 0.05, 0.02},
		{"l1-only", 0, 0.02},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := elasticNetParams(tc.l2, tc.l1)
			wSparse := runASGD(t, p)
			// l2 and l1 reach a worker across a real wire and rebuild the
			// driver's objective there: same bits as the in-process run
			if wTCP := runASGDOn(t, loopback, p); !la.Equal(wSparse, wTCP, 0) {
				t.Fatal("elastic-net ASGD over TCP diverged from the in-process run")
			}
			wDense := func() la.Vec {
				forceDense(t)
				return runASGD(t, p)
			}()
			if !la.Equal(wSparse, wDense, 1e-9) {
				t.Fatal("sparse prox-at-settle diverged from the eager dense path")
			}
			zeros := 0
			for _, x := range wSparse {
				if x == 0 {
					zeros++
				}
			}
			if zeros == 0 {
				t.Fatal("ℓ1 run produced no exact zeros — prox never fired")
			}
		})
	}
}

// TestProxApplierSettleIdempotent: settling twice is a no-op, and a settle
// mid-stream leaves the same model as settling only at the end.
func TestProxApplierSettleIdempotent(t *testing.T) {
	const cols = 32
	mk := func() (*proxApplier, la.Vec) {
		p := Params{Loss: Composite{Inner: LeastSquares{}, L2: 0.03, L1: 0.01}, Step: Constant{A: 0.1}}
		a := newProxApplier(&p, cols)
		w := la.NewVec(cols)
		for j := range w {
			w[j] = float64(j%5) - 2
		}
		return a, w
	}
	deltas := func(rng *rand.Rand) *la.DeltaVec {
		dv := &la.DeltaVec{N: cols}
		for j := 0; j < cols; j += 1 + rng.Intn(4) {
			dv.Idx = append(dv.Idx, int32(j))
			dv.Val = append(dv.Val, rng.NormFloat64())
		}
		return dv
	}

	a1, w1 := mk()
	a2, w2 := mk()
	rng1 := rand.New(rand.NewSource(9))
	rng2 := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		a1.applySparse(w1, deltas(rng1), 0.05, 4)
		a2.applySparse(w2, deltas(rng2), 0.05, 4)
		if i == 25 {
			a2.settle(w2) // mid-stream settle must not change the trajectory
			a2.settle(w2) // idempotent
		}
	}
	a1.settle(w1)
	a2.settle(w2)
	if !la.Equal(w1, w2, 1e-9) {
		t.Fatal("mid-stream settle changed the settled model")
	}
}

// TestRejectL1 pins the capability gate: solvers without a proximal step
// refuse ℓ1 objectives instead of silently optimizing something else.
func TestRejectL1(t *testing.T) {
	enet := Composite{Inner: LeastSquares{}, L2: 0.1, L1: 0.1}
	if err := rejectL1(enet, "saga"); err == nil {
		t.Fatal("ℓ1 objective accepted by a prox-free solver")
	}
	if err := rejectL1(Composite{Inner: LeastSquares{}, L2: 0.1}, "saga"); err != nil {
		t.Fatalf("smooth ridge rejected: %v", err)
	}
	r := newRig(t, 1, 2, nil)
	p := Params{Step: Constant{A: 0.01}, SampleFrac: 0.5, Updates: 4, Loss: enet}
	if _, err := SAGA(r.ac, r.d, p, 0); err == nil {
		t.Fatal("SAGA ran an ℓ1 objective")
	}
	if _, err := ASAGA(r.ac, r.d, p, 0); err == nil {
		t.Fatal("ASAGA ran an ℓ1 objective")
	}
	if _, err := EpochVR(r.ac, r.d, p, VRConfig{Epochs: 1, UpdatesPerEpoch: 4}, 0); err == nil {
		t.Fatal("EpochVR ran an ℓ1 objective")
	}
}
