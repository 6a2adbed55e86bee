package opt

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
)

// recycleSaga hands a SAGA kernel payload's pooled storage back.
func recycleSaga(v any) {
	switch part := v.(type) {
	case la.Vec:
		la.PutVec(part)
	case *la.DeltaVec:
		la.PutDelta(part)
	}
}

// TestSagaCoefficientsMatchVersionHistory is the oracle of SagaKernel's
// per-row coefficients. The version-history arm (baseline.go), which shares
// no code with it, re-evaluates each sampled row's gradient at the model
// version the row last saw. Both run the same 48 tasks, over 6 model
// versions, on one worker: rows are sampled for the first time throughout,
// and the worker's store is cleared halfway. They must ship the same bits at
// every step, on dense and sparse partitions, for both losses and a ridge
// objective.
func TestSagaCoefficientsMatchVersionHistory(t *testing.T) {
	envs := map[string]func() (*cluster.Env, []int, int){
		"dense": func() (*cluster.Env, []int, int) {
			env, idx, w, _ := benchEnv(t, 300, 60, 2)
			return env, idx, len(w)
		},
		"sparse": func() (*cluster.Env, []int, int) { return sparseKernelEnv(t) },
	}
	const frac, versions, tasksPerVersion = 0.05, 6, 8
	payloads := map[string]bool{}
	for envName, mkEnv := range envs {
		for _, loss := range []Loss{LeastSquares{}, Logistic{}, Composite{Inner: LeastSquares{}, L2: 0.1}} {
			env, parts, dim := mkEnv()
			model := rand.New(rand.NewSource(9))
			sampled := map[[2]int]bool{} // rows sampled since the store was last cleared
			fresh, withHistory := 0, 0   // tasks after a half's first that sample new rows; tasks with history
			for v := int64(1); v <= versions; v++ {
				w := la.NewVec(dim)
				for j := range w {
					w[j] = 0.1 * model.NormFloat64()
				}
				env.Cache().Put("saga.w", v, w)
				if v == versions/2+1 {
					env.StoreClear()
					clear(sampled)
				}
				br := core.DynBroadcast{ID: "saga.w", Version: v}
				for k := 0; k < tasksPerVersion; k++ {
					seed := 100*v + int64(k)
					want, wn, err := versionHistoryKernel(loss, br, frac)(env, parts, seed)
					if err != nil {
						t.Fatal(err)
					}
					got, gn, err := SagaKernel(loss, br, frac)(env, parts, seed)
					if err != nil {
						t.Fatal(err)
					}
					if wn == 0 || gn != wn || !samePayload(want, got) {
						t.Fatalf("%s/%s version %d task %d: coefficient payload (%T, n=%d) != version-history payload (%T, n=%d)",
							envName, loss.Name(), v, k, got, gn, want, wn)
					}
					payloads[fmt.Sprintf("%T", got)] = true
					// replay the task's sampling (a row sampler seeded with
					// the task seed): a row sampled before carries history,
					// one never sampled is new
					rows, isNew, hasHist := cluster.NewRowSampler(seed, frac), false, false
					for _, pi := range parts {
						p, _ := env.Partition(pi)
						nr := p.NumRows()
						for local := rows.Next(0, nr); local < nr; local = rows.Next(local+1, nr) {
							row := [2]int{pi, local}
							isNew = isNew || !sampled[row]
							hasHist = hasHist || sampled[row]
							sampled[row] = true
						}
					}
					if isNew && len(sampled) > wn {
						fresh++
					}
					if hasHist {
						withHistory++
					}
					recycleSaga(want)
					recycleSaga(got)
				}
			}
			if fresh < versions || withHistory < versions {
				t.Fatalf("%s/%s: %d later tasks sampled new rows, %d carried history — the test exercises too little",
					envName, loss.Name(), fresh, withHistory)
			}
		}
	}
	if !payloads["la.Vec"] || !payloads["*la.DeltaVec"] {
		t.Fatalf("payload kinds compared: %v, want both", payloads)
	}
}

// TestRidgeSAGAConverges: workers ship loss gradients and the driver applies
// the ridge term exactly at the model it updates, so saga and asaga reach
// the ridge objective's own optimum (ReferenceOptimumFor the composite) on
// every transport. One worker keeps the runs sequential: what is under test
// is the arithmetic, not the interleaving (TestASAGAConverges covers that).
func TestRidgeSAGAConverges(t *testing.T) {
	ridge := Composite{Inner: LeastSquares{}, L2: 0.05}
	d, err := dataset.Generate(denseCfg())
	if err != nil {
		t.Fatal(err)
	}
	_, fstar, err := ReferenceOptimumFor(d, ridge)
	if err != nil {
		t.Fatal(err)
	}
	gap0 := Objective(d, ridge, la.NewVec(d.NumCols())) - fstar
	// SAGA converges linearly on this strongly convex objective; dropping
	// the ridge term leaves a gap of ~2e-3·gap0 (the loss's own optimum)
	const epsFrac = 1e-6
	eachTransport(t, func(t *testing.T, tr transport) {
		for name, solve := range map[string]func(*core.Context, *dataset.Dataset, Params, float64) (*Result, error){
			"saga": SAGA, "asaga": ASAGA,
		} {
			r := newRigOn(t, tr, 1, 2, nil, denseCfg())
			res, err := solve(r.ac, r.d, Params{
				Loss: ridge, Step: Constant{A: 0.05}, SampleFrac: 0.3, Updates: 600, SnapshotEvery: 100,
			}, fstar)
			if err != nil {
				t.Fatal(err)
			}
			if gap := Objective(r.d, ridge, res.W) - fstar; gap < -1e-12 || gap > epsFrac*gap0 {
				t.Fatalf("%s: ridge suboptimality %.3g, want within %g of the initial %.3g", name, gap, epsFrac, gap0)
			}
		}
	})
}
