package opt

import (
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
// deferred −α·μ drift of the sparse task path. A checkpoint carries anchor
// and μ, so a mid-epoch resume continues against the exact epoch state
// instead of re-anchoring.
type vrUpdater struct {
	ac       *core.Context
	fullPass func(core.DynBroadcast, *core.Selection) (int, error) // opt.fullgrad dispatch
	filter   core.WorkerFilter
	epochLen int64

	w, mu    la.Vec
	anchor   la.Vec
	anchorBr core.DynBroadcast
	drift    lazyDrift
	resumed  bool // anchor/μ imported from a checkpoint, valid mid-epoch
}

func (u *vrUpdater) Model() la.Vec { return u.w }
func (u *vrUpdater) Settle()       { u.drift.settleAll(u.w, u.mu) }

func (u *vrUpdater) Apply(payload any, attrs *core.Attrs, alpha float64) error {
	ab := alpha / float64(attrs.MiniBatch)
	switch diff := payload.(type) {
	case la.Vec:
		u.Settle()
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

// begin opens an epoch: settle the previous epoch's drift, take (or, on a
// mid-epoch resume, keep) the anchor, broadcast it, and recompute
// μ = ∇F(w̃) with a synchronous full pass — unless μ arrived with a
// mid-epoch checkpoint, in which case the pass is skipped and the resumed
// run continues bit-for-bit where the original stopped.
func (u *vrUpdater) begin(global int64) error {
	u.Settle()
	keep := u.resumed && u.epochLen > 0 && global%u.epochLen != 0
	u.resumed = false
	if !keep {
		u.anchor = u.w.Clone()
	}
	u.anchorBr = u.ac.ASYNCbroadcast("vr.anchor", u.anchor)
	if keep {
		return nil // μ was imported alongside the anchor
	}
	u.mu.Zero()
	total := 0
	// A pass that comes back empty is dispatched again, as the main loop
	// retries an empty round: when its tasks all failed, the third pass
	// trips the failure rule and the run ends with core.ErrTaskFailed and
	// the worker's message. The bound is for a pass empty for another reason.
	for pass := 0; total == 0 && pass < 3; pass++ {
		err := bspRound(u.ac,
			u.filter,
			func(sel *core.Selection) (int, error) {
				return u.fullPass(u.anchorBr, sel)
			},
			func(payload any, attrs *core.Attrs) error {
				g, ok := payload.(la.Vec)
				if !ok {
					return fmt.Errorf("unexpected full-pass payload %T", payload)
				}
				la.Axpy(1, g, u.mu)
				la.PutVec(g)
				total += attrs.MiniBatch
				return nil
			})
		if err != nil {
			return fmt.Errorf("opt: EpochVR anchor at update %d: %w", global, err)
		}
	}
	if total == 0 {
		return fmt.Errorf("opt: EpochVR at update %d: empty full pass", global)
	}
	la.Scale(1/float64(total), u.mu)
	return nil
}

// EpochVR is the epoch-based variance-reduced scheme of Listing 3 (SVRG
// style): each epoch synchronously computes the full gradient μ = ∇F(w̃) at
// the anchor w̃ via a BSP reduction, then runs asynchronous inner updates
//
//	w ← w − α·[ (∇f_S(w) − ∇f_S(w̃))/b + μ ]
//
// mixing synchronous Spark-style actions with ASYNC's asynchronous
// reductions, which is exactly the pattern the listing demonstrates.
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
	fullPass, err := kernelDispatch(ac, fullGradOpName, p.Loss, 0, nil)
	if err != nil {
		return nil, err
	}
	u := &vrUpdater{
		ac:       ac,
		fullPass: fullPass,
		filter:   p.Filter,
		epochLen: int64(c.UpdatesPerEpoch),
		w:        la.NewVec(d.NumCols()),
		mu:       la.NewVec(d.NumCols()),
	}
	dispatch, err := kernelDispatch(ac, vrOpName, p.Loss, p.SampleFrac, func(a *GradOpArgs) {
		a.AuxID, a.AuxVersion = u.anchorBr.ID, u.anchorBr.Version
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
