// Package async is the public facade of the ASYNC engine reproduction
// (Soori et al., IPDPS 2020): one blessed entry point that owns the
// cluster, the RDD dataflow context and the Asynchronous Context (AC), and
// runs any registered optimization method by name.
//
// The five hand-wired setup steps the internal packages require
// (cluster.NewLocal → rdd.NewContext → core.New → distribute → opt.<Algo>)
// collapse into three calls:
//
//	eng, err := async.New(async.WithWorkers(4), async.WithSeed(1))
//	defer eng.Close()
//	res, err := eng.Solve(ctx, "asgd", d, async.SolveOptions{
//		Params: opt.Params{Step: opt.InvSqrt{A: 0.01}, SampleFrac: 0.25, Updates: 400},
//	})
//
// The objective is declared structurally: a named smooth loss
// (least-squares default, logistic) plus optional elastic-net penalties.
// An ℓ1 term is solved with a proximal step — final models carry exact
// zeros — and is accepted by the prox-capable solvers (sgd, asgd, cd,
// gcg); everything else rejects it up front:
//
//	res, err := eng.Solve(ctx, "cd", d, async.SolveOptions{
//		Objective: async.Objective{Loss: "least-squares", L2: 0.01, L1: 0.001},
//		Params:    opt.Params{Updates: 200},
//	})
//
// Engines are configured with functional options: WithWorkers, WithSeed,
// WithTransport (Local or TCP), WithBarrier / WithStalenessBound (the
// default barrier-control policy: ASP, BSP, SSP or any custom predicate),
// WithPartitions, WithStraggler and WithMinTaskTime.
//
// Algorithms are resolved through a name-keyed registry: the paper's
// methods (sgd, asgd, saga, asaga, svrg, admm), the composite-objective
// family (cd — proximal block coordinate descent, the one solver with
// selection modes, in BSP rounds or per-partial steps as its barrier says;
// gcg — restarted Polak–Ribière+ CG, then an ℓ1 soft-threshold) and
// the Mllib-style baseline (mllib-sgd) are pre-registered, and new workloads
// plug in via Register without touching the engine. Every solver but the
// baseline dispatches registered ops, so it runs on either transport; the
// names asgd-remote and asaga-remote are deprecated aliases of asgd and
// asaga. Solvers receive a context.Context that is threaded down into the
// AC, so cancellation or a deadline aborts barrier waits and result
// collection mid-run. A run whose tasks keep failing on the workers ends
// with an error carrying the worker's message (core.ErrTaskFailed).
//
// For drivers that need the raw Table-1 primitives (ASYNCbroadcast,
// ASYNCbarrier, ASYNCreduce, ASYNCcollect), Engine.Context exposes the
// underlying AC; the barrier and filter constructors (ASP, BSP, SSP,
// MinAvailable, MaxAvgTaskTime) are re-exported here so such drivers need
// no internal imports. ASYNCreduce takes a closure and so needs in-process
// workers; ASYNCreduceOp dispatches a registered op and runs anywhere.
//
// An engine serves one Solve at a time (ErrBusy) and holds one dataset at
// a time (Release swaps it); between solves the engine resets its logical
// clock, statistics, and worker-local run state, so sequential runs are
// independent. For serving many concurrent jobs over a pool of engines,
// see the async/jobs subpackage.
package async
