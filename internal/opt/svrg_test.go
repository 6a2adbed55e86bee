package opt

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/la"
)

// vrKernel is the inner-step kernel svrg ran before its anchor moved into
// SAGA's coefficient table, kept as the oracle of the table: it reads the
// anchor w̃ as a second broadcast and takes two dots per sampled row,
// scattering (c(w) − c(w̃))·x. It shares no code with sagaSweep.
func vrKernel(loss Loss, wBr, anchorBr core.DynBroadcast, frac float64) core.Kernel {
	l2, _ := loss.Penalties()
	lin := bare(loss)
	return func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		w, err := modelVec(env, wBr)
		if err != nil {
			return nil, 0, err
		}
		anchor, err := modelVec(env, anchorBr)
		if err != nil {
			return nil, 0, err
		}
		rows := cluster.NewRowSampler(seed, frac)
		sweep := func(acc rowAccum) int {
			n := 0
			for _, pi := range parts {
				p, _ := env.Partition(pi)
				nr := p.NumRows()
				for local := rows.Next(0, nr); local < nr; local = rows.Next(local+1, nr) {
					idx, val := p.X.RowNZ(local)
					c := lin.GradCoeff(la.SparseDot(idx, val, w), p.Y[local])
					c -= lin.GradCoeff(la.SparseDot(idx, val, anchor), p.Y[local])
					acc.Accum(c, idx, val)
					n++
				}
			}
			return n
		}
		if l2 == 0 && sparseTaskViable(env, parts, frac, len(w)) {
			acc := la.NewDeltaAccum(len(w))
			if n := sweep(acc); n > 0 {
				return acc.Compact(), n, nil
			}
			return nil, 0, nil
		}
		diff := la.NewVec(len(w))
		if n := sweep(denseAccum(diff)); n > 0 {
			return diff, n, nil
		}
		return nil, 0, nil
	}
}

// TestVRTableMatchesAnchorKernel: svrg's full pass fills the table and ships
// what opt.grad at Frac 1 ships at the anchor; the inner steps that read it
// ship the oracle's bits. Two epochs of 3 model versions × 8 tasks each — 48
// inner tasks — run on one worker, on dense and sparse partitions, for both
// losses and a ridge objective. A task naming an anchor version its table
// was not filled at fails, naming the partition, instead of shipping a
// biased sum.
func TestVRTableMatchesAnchorKernel(t *testing.T) {
	envs := map[string]func() (*cluster.Env, []int, int){
		"dense": func() (*cluster.Env, []int, int) {
			env, idx, w, _ := benchEnv(t, 300, 60, 2)
			return env, idx, len(w)
		},
		"sparse": func() (*cluster.Env, []int, int) { return sparseKernelEnv(t) },
	}
	const frac, epochs, versions, tasksPerVersion = 0.1, 2, 3, 8
	payloads := map[string]bool{}
	for envName, mkEnv := range envs {
		for _, loss := range []Loss{LeastSquares{}, Logistic{}, Composite{Inner: LeastSquares{}, L2: 0.1}} {
			env, parts, dim := mkEnv()
			model := rand.New(rand.NewSource(9))
			put := func(v int64) core.DynBroadcast {
				w := la.NewVec(dim)
				for j := range w {
					w[j] = 0.1 * model.NormFloat64()
				}
				env.Cache().Put("vr.w", v, w)
				return core.DynBroadcast{ID: "vr.w", Version: v}
			}
			inner := 0
			for v, e := int64(1), 0; e < epochs; e++ {
				anchor := put(v)
				v++
				// the oracle resolves the anchor broadcast: keep it cached
				env.Cache().Retain("vr.w", anchor.Version)
				want, wn, err := GradKernel(loss, anchor, 1)(env, parts, 7)
				if err != nil {
					t.Fatal(err)
				}
				got, gn, err := tableKernel(loss, anchor, 1, tableFill, anchor.Version)(env, parts, 7)
				if err != nil {
					t.Fatal(err)
				}
				if wn == 0 || gn != wn || !samePayload(want, got) {
					t.Fatalf("%s/%s epoch %d: full pass (%T, n=%d) != opt.grad at Frac 1 (%T, n=%d)", envName, loss.Name(), e, got, gn, want, wn)
				}
				for ; v <= anchor.Version+versions; v++ {
					wBr := put(v)
					for k := 0; k < tasksPerVersion; k++ {
						seed := 100*v + int64(k)
						want, wn, err := vrKernel(loss, wBr, anchor, frac)(env, parts, seed)
						if err != nil {
							t.Fatal(err)
						}
						got, gn, err := tableKernel(loss, wBr, frac, tableRead, anchor.Version)(env, parts, seed)
						if err != nil {
							t.Fatal(err)
						}
						if wn == 0 || gn != wn || !samePayload(want, got) {
							t.Fatalf("%s/%s version %d task %d: table payload (%T, n=%d) != anchor-kernel payload (%T, n=%d)",
								envName, loss.Name(), v, k, got, gn, want, wn)
						}
						payloads[fmt.Sprintf("%s/%T", envName, got)] = true
						inner++
					}
				}
				// the next epoch's anchor is newer: the old stamp is stale
				_, _, err = tableKernel(loss, core.DynBroadcast{ID: "vr.w", Version: v - 1}, frac, tableRead, anchor.Version+1)(env, parts, 1)
				var miss *anchorMissingError
				if !errors.As(err, &miss) || miss.part != parts[0] || miss.version != anchor.Version+1 {
					t.Fatalf("%s/%s: a read at an unfilled anchor version returned %v, want the partition named", envName, loss.Name(), err)
				}
			}
			if inner < 40 {
				t.Fatalf("only %d inner tasks compared", inner)
			}
		}
	}
	for _, want := range []string{"dense/la.Vec", "sparse/*la.DeltaVec", "sparse/la.Vec"} {
		if !payloads[want] {
			t.Errorf("no %s payload compared: %v", want, payloads)
		}
	}
}

// TestEpochVRUnderPSP: under a filter that tasks only a random half of the
// available workers, every epoch's full pass still reaches every live
// worker, so no inner task meets a partition without anchor coefficients and
// the run completes; μ is the full gradient.
func TestEpochVRUnderPSP(t *testing.T) {
	r := newRigOn(t, local, 4, 8, nil, denseCfg())
	res, err := EpochVR(r.ac, r.d,
		Params{Step: Constant{A: 0.02}, SampleFrac: 0.3, Updates: 1, SnapshotEvery: 40, Filter: core.PSP(0.5, rand.New(rand.NewSource(3)))},
		VRConfig{Epochs: 4, UpdatesPerEpoch: 80}, r.fstar)
	if err != nil {
		t.Fatal(err)
	}
	r.assertConverged(t, res, 10)
}
