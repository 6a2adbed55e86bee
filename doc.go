// Package repro is a from-scratch Go reproduction of "ASYNC: A Cloud Engine
// with Asynchrony and History for Distributed Machine Learning" (Soori et
// al., IPDPS 2020; arXiv:1907.08526).
//
// The public API is the top-level async package: async.New builds an
// Engine with functional options (workers, seed, transport, barrier
// policy, partitions), and Engine.Solve runs any optimization method
// registered in the solver registry by name — the paper's methods (sgd,
// asgd, saga, asaga, svrg, admm), proximal coordinate descent (cd) and
// conjugate gradient (gcg), and the Mllib-style baseline are
// pre-registered.
//
// async/jobs layers multi-tenant serving on top: a Scheduler owning a
// pool of engines and a bounded priority queue of jobs, with dataset-
// affinity routing, per-job cancellation, progress-event streams, and a
// JSON/HTTP API. cmd/asyncd runs it as a long-lived daemon.
//
// The machinery lives under internal/: a Spark-like dataflow substrate
// (cluster, rdd), the ASYNC engine itself (core), the optimization methods
// the paper evaluates and their registry (opt), straggler models
// (straggler), datasets (dataset, la), and one experiment harness per
// paper table and figure (experiments). bench_test.go in this directory
// regenerates every table and figure as a Go benchmark; cmd/asyncbench
// does the same as a CLI. Performance is measured by one program,
// go run ./benchmark (BENCHMARK.json declares it, benchmark/README.md
// explains it).
//
// See README.md for a quickstart and a tour of the layout.
package repro
