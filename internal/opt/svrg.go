package opt

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
)

// VRConfig carries the epoch structure of Listing 3 for the
// variance-reduced solver (svrg): Epochs outer epochs, each a full pass
// followed by UpdatesPerEpoch asynchronous inner updates. Zero Epochs is 3;
// zero UpdatesPerEpoch spreads Params.Updates evenly across the epochs.
type VRConfig struct {
	Epochs          int
	UpdatesPerEpoch int
}

func (c *VRConfig) defaults(updates int) error {
	if c.Epochs < 0 || c.UpdatesPerEpoch < 0 {
		return fmt.Errorf("opt: EpochVR epochs %d and updates per epoch %d must be non-negative", c.Epochs, c.UpdatesPerEpoch)
	}
	if c.Epochs == 0 {
		c.Epochs = 3
	}
	if c.UpdatesPerEpoch == 0 {
		c.UpdatesPerEpoch = max(updates/c.Epochs, 1)
	}
	return nil
}

// vrUpdater is the variance-reduced inner-loop state: the anchor w̃ and its
// full gradient μ (recomputed per epoch by begin), the model, and the
// deferred −α·μ drift of the sparse task path. The anchor's per-row
// coefficients c_i(w̃) live on the workers, in the coefficient table SAGA
// keeps, stamped with anchorVer. A checkpoint carries anchor and μ, so a
// mid-epoch resume refills the tables and continues against the exact epoch
// state instead of re-anchoring.
type vrUpdater struct {
	ac       *core.Context
	fullPass func(core.DynBroadcast, *core.Selection) (int, error) // opt.vr.fill dispatch
	epochLen int64

	w, mu     la.Vec // μ is the loss's mean gradient at the anchor
	l2        float64
	anchor    la.Vec
	anchorVer int64 // the model version the workers' tables were filled at
	drift     lazyDrift
	resumed   bool // anchor/μ imported from a checkpoint, valid mid-epoch
}

func (u *vrUpdater) Model() la.Vec { return u.w }
func (u *vrUpdater) Settle()       { u.drift.settleAll(u.w, u.mu) }

func (u *vrUpdater) Apply(payload any, attrs *core.Attrs, alpha float64) error {
	ab := alpha / float64(attrs.MiniBatch)
	switch diff := payload.(type) {
	case la.Vec:
		u.Settle()
		if u.l2 != 0 {
			la.Scale(1-alpha*u.l2, u.w)
		}
		la.Axpy(-ab, diff, u.w)
		la.Axpy(-alpha, u.mu, u.w)
		la.PutVec(diff)
		return nil
	case *la.DeltaVec:
		// O(nnz): the sparse variance-reduced step touches only the sampled
		// rows' support; the dense −α·μ term is deferred per coordinate
		u.drift.ensure(len(u.w))
		u.drift.advance(alpha)
		for k, j := range diff.Idx {
			u.drift.settleCoord(u.w, u.mu, j)
			u.w[j] -= ab * diff.Val[k]
		}
		la.PutDelta(diff)
		return nil
	default:
		return fmt.Errorf("unexpected payload %T", payload)
	}
}

func (u *vrUpdater) Export(cp *Checkpoint) {
	cp.SetVec("mu", u.mu)
	cp.SetVec("anchor", u.anchor)
}

func (u *vrUpdater) Import(cp *Checkpoint) error {
	if err := importModel(u.w, cp); err != nil {
		return err
	}
	if mu, anchor := cp.Vec("mu"), cp.Vec("anchor"); mu != nil && anchor != nil {
		u.mu.CopyFrom(mu)
		u.anchor = anchor.Clone()
		u.resumed = true
	}
	return nil
}

// begin opens an epoch at the published model wBr, the new anchor w̃: the
// full pass stores each row's c_i(w̃) in its worker's table and sums
// μ = ∇F(w̃). A mid-epoch resume imported the anchor and μ, so its pass
// reads the anchor from a one-off version of the model's id — a plain
// broadcast, which the stamped publish never hands out — only to refill the
// tables: μ stays as imported, and the dispatch counter is put back so the
// inner tasks draw the seeds the interrupted run drew.
func (u *vrUpdater) begin(global int64, wBr core.DynBroadcast) error {
	keep := u.resumed && u.epochLen > 0 && global%u.epochLen != 0
	u.resumed = false
	if keep {
		co := u.ac.Coordinator()
		seq := co.DispatchSeq()
		_, err := u.fill(u.ac.ASYNCbroadcast(wBr.ID, u.anchor), global, la.NewVec(len(u.mu)))
		co.SetDispatchSeq(seq)
		return err
	}
	u.anchor = u.w.Clone()
	u.mu.Zero()
	total, err := u.fill(wBr, global, u.mu)
	if err != nil {
		return err
	}
	la.Scale(1/float64(total), u.mu)
	return nil
}

// fill runs the full pass at br under BSP on every available worker — one
// the pass skipped would have no anchor coefficients — adds the partial
// sums into sum and returns the number of rows. Only a collect error that
// ends the run (cancellation, the task-failure rule) is returned. An empty
// pass is dispatched again, as the main loop retries an empty round: if
// its tasks all failed, the third pass trips the failure rule and the run
// ends with core.ErrTaskFailed and the worker's message.
func (u *vrUpdater) fill(br core.DynBroadcast, global int64, sum la.Vec) (int, error) {
	total := 0
	for pass := 0; total == 0 && pass < 3; pass++ {
		sel, err := u.ac.ASYNCbarrier(core.BSP(), nil)
		n := 0
		if err == nil {
			n, err = u.fullPass(br, sel)
		}
		for i := 0; i < n && err == nil; i++ {
			tr, cerr := u.ac.ASYNCcollectAll()
			if cerr != nil {
				if errors.Is(cerr, core.ErrTaskFailed) || errors.Is(cerr, context.Canceled) || errors.Is(cerr, context.DeadlineExceeded) {
					err = cerr
				}
				break
			}
			total += tr.Attrs.MiniBatch
			err = AxpyPayload(1, tr.Payload, sum)
		}
		if err != nil {
			return 0, fmt.Errorf("opt: EpochVR anchor at update %d: %w", global, err)
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("opt: EpochVR at update %d: empty full pass", global)
	}
	u.anchorVer = br.Version
	return total, nil
}

// EpochVR is the epoch-based variance-reduced scheme of Listing 3 (SVRG
// style), mixing a synchronous Spark-style action with ASYNC's asynchronous
// reductions as the listing demonstrates. Each epoch's full pass, a BSP
// reduction at the anchor w̃, computes the loss's full gradient μ and leaves
// each row's coefficient c_i(w̃) in its worker's SAGA table; the
// asynchronous inner updates that follow read those coefficients,
//
//	w ← w − α·[ (∇ℓ_S(w) − ∇ℓ_S(w̃))/b + μ + λ2·w ]
//
// with the ridge term taken at the driver's model (the ridge parts of
// ∇F(w) − ∇F(w̃) + ∇F(w̃) telescope to λ2·w).
func EpochVR(ac *core.Context, d *dataset.Dataset, p Params, c VRConfig, fstar float64) (*Result, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	if err := c.defaults(p.Updates); err != nil {
		return nil, err
	}
	if err := rejectL1(p.Loss, "svrg"); err != nil {
		return nil, err
	}
	fullPass, err := kernelDispatch(ac, vrFillOpName, p.Loss, 1, nil)
	if err != nil {
		return nil, err
	}
	u := &vrUpdater{
		ac:       ac,
		fullPass: fullPass,
		epochLen: int64(c.UpdatesPerEpoch),
		w:        la.NewVec(d.NumCols()),
		mu:       la.NewVec(d.NumCols()),
	}
	u.l2, _ = p.Loss.Penalties()
	dispatch, err := kernelDispatch(ac, vrOpName, p.Loss, p.SampleFrac, func(a *GradOpArgs) {
		a.AuxVersion = u.anchorVer
	})
	if err != nil {
		return nil, err
	}
	return runLoop(ac, d, u, &loopSpec{
		Algo: "EpochVR", Name: "svrg", Key: "vr.w",
		P: &p, Loss: p.Loss, FStar: fstar,
		Target:     int64(c.Epochs) * int64(c.UpdatesPerEpoch),
		EpochLen:   int64(c.UpdatesPerEpoch),
		EpochBegin: u.begin,
		Dispatch:   dispatch,
	})
}
