// Command asyncd is the ASYNC serving daemon. It has three roles:
//
// Serve (the default): a long-running job-scheduling service over a pool
// of in-process engines, exposing the JSON/HTTP API of async/jobs — any
// registry algorithm, any catalog dataset, any barrier policy, per
// request. Scheduling is preemptive: a strictly-higher-priority job
// checkpoints the lowest-priority running job aside (POST
// /v1/jobs/{id}/preempt does it manually, GET /v1/jobs/{id}/checkpoint
// downloads the capture, and "resume_from" on submission continues it):
//
//	asyncd -listen :8080 -engines 2 -workers 4
//	curl -s localhost:8080/v1/jobs -d '{"algorithm":"asgd","dataset":{"name":"rcv1-like"}}'
//
// The serve role is fully observable: GET /v1/metrics is a Prometheus
// scrape covering every layer (serving, coordinator, driver runtime, WAL,
// wire codec), GET /v1/jobs/{id}/trace downloads a job's run-scoped JSONL
// event trace, and /debug/pprof/ serves live CPU/heap/goroutine profiles.
//
// TCP demo roles: one server process driving N worker processes over real
// sockets, demonstrating the ASYNC protocol (tasks, results, installs,
// versioned broadcast fetches) across a real transport:
//
//	asyncd -role server -addr :7077 -workers 4
//	asyncd -role worker -addr host:7077 -id 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/async"
	"repro/async/jobs"
	"repro/async/jobs/store"
	"repro/internal/dataset"
	"repro/internal/opt"
	"repro/internal/straggler"
)

func main() {
	var (
		role     = flag.String("role", "serve", "serve|server|worker")
		listen   = flag.String("listen", ":8080", "HTTP listen address (serve)")
		engines  = flag.Int("engines", 2, "engine-pool size (serve)")
		queue    = flag.Int("queue", 64, "job-queue depth (serve)")
		retain   = flag.Int("retain", 256, "terminal jobs retained (serve)")
		storeDir = flag.String("store-dir", "", "WAL directory for durable job state (serve; empty = in-memory only)")
		replica  = flag.String("replica-id", "", "replica name for multi-replica serving over a shared -store-dir (serve; empty = single-owner)")
		leaseTTL = flag.Duration("lease-ttl", 10*time.Second, "job-lease duration in replica mode (serve)")
		quota    = flag.Int("tenant-quota", 0, "max queued jobs per tenant (serve; 0 = unlimited)")
		sloSlack = flag.Duration("slo-slack", 5*time.Second, "deadline slack below which SLO jobs may preempt (serve)")
		compact  = flag.Int("compact-every", 1024, "WAL appends between compactions (serve)")
		addr     = flag.String("addr", ":7077", "listen/dial address (server, worker)")
		workers  = flag.Int("workers", 4, "workers per engine (serve) or per cluster (server)")
		id       = flag.Int("id", 0, "worker id (worker)")
		updates  = flag.Int("updates", 200, "ASGD updates to run (server)")
		delayW   = flag.Int("straggle", -1, "worker id to delay at 100% (worker; -1 = none)")
	)
	flag.Parse()
	switch *role {
	case "serve":
		if err := runService(serviceConfig{
			listen: *listen, engines: *engines, workers: *workers,
			queue: *queue, retain: *retain, storeDir: *storeDir,
			tenantQuota: *quota, sloSlack: *sloSlack, compactEvery: *compact,
			replicaID: *replica, leaseTTL: *leaseTTL,
		}); err != nil {
			fatalf("serve: %v", err)
		}
	case "server":
		if err := runServer(*addr, *workers, *updates); err != nil {
			fatalf("server: %v", err)
		}
	case "worker":
		var model straggler.Model = straggler.None{}
		if *delayW == *id {
			model = straggler.ControlledDelay{Worker: *id, Intensity: 1.0}
		}
		if err := async.ServeWorker(*addr, *id, model, int64(*id)+1); err != nil {
			fatalf("worker %d: %v", *id, err)
		}
	default:
		fatalf("-role must be serve, server, or worker")
	}
}

// serviceConfig bundles the serve-role flags.
type serviceConfig struct {
	listen       string
	engines      int
	workers      int
	queue        int
	retain       int
	storeDir     string
	tenantQuota  int
	sloSlack     time.Duration
	compactEvery int
	replicaID    string
	leaseTTL     time.Duration
}

// runService runs the job-scheduling daemon until SIGINT/SIGTERM. With
// -store-dir, job state is durable: every lifecycle transition is WAL-logged
// before it is acknowledged, boot replays the log (resuming interrupted jobs
// from their last durable checkpoint), and a signal drains gracefully —
// running jobs preempt at their next update boundary, checkpoints persist,
// and the WAL is fsynced before exit. With -replica-id, several daemons
// share one -store-dir: jobs are lease-claimed before dispatch, every
// append is epoch-fenced, and a crashed replica's jobs fail over to the
// survivors after its lease expires.
func runService(cfg serviceConfig) error {
	jc := jobs.Config{
		Engines:       cfg.engines,
		QueueDepth:    cfg.queue,
		Retention:     cfg.retain,
		TenantQuota:   cfg.tenantQuota,
		SLOSlack:      cfg.sloSlack,
		CompactEvery:  cfg.compactEvery,
		EngineOptions: []async.Option{async.WithWorkers(cfg.workers)},
	}
	if cfg.replicaID != "" && cfg.storeDir == "" {
		return errors.New("-replica-id needs -store-dir (replicas coordinate through the shared log)")
	}
	if cfg.storeDir != "" {
		var w *store.WAL
		var err error
		if cfg.replicaID != "" {
			w, err = store.OpenShared(cfg.storeDir, cfg.replicaID, store.SharedOptions{
				CompactEvery: cfg.compactEvery,
			})
			jc.ReplicaID = cfg.replicaID
			jc.LeaseTTL = cfg.leaseTTL
		} else {
			w, err = store.Open(cfg.storeDir, store.Options{})
		}
		if errors.Is(err, syscall.EWOULDBLOCK) {
			err = fmt.Errorf("-store-dir %s is already served by another process; start every daemon on this directory with -replica-id to share it (%w)", cfg.storeDir, err)
		}
		if err != nil {
			return err
		}
		defer w.Close()
		jc.Store = w
	}
	sched, err := jobs.New(jc)
	if err != nil {
		return err
	}
	defer sched.Close()
	if cfg.storeDir != "" {
		st := sched.Stats()
		fmt.Fprintf(os.Stderr, "asyncd: recovered %d jobs from %s in %.1fms\n",
			st.RecoveredJobs, cfg.storeDir, st.RecoveryMS)
	}
	srv := &http.Server{Addr: cfg.listen, Handler: jobs.NewHandler(sched)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "asyncd: serving on %s (%d engines × %d workers, queue %d)\n",
		cfg.listen, cfg.engines, cfg.workers, cfg.queue)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "asyncd: %v, draining\n", sig)
	}
	// graceful drain: stop dispatching, preempt running jobs so their
	// checkpoints spill durably, fsync the WAL. Bounded so a
	// non-cooperating solver cannot hold shutdown hostage.
	if jc.Store != nil {
		dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := sched.Drain(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "asyncd: drain: %v\n", err)
		}
		dcancel()
	}
	// close the scheduler next: it cancels jobs and closes event
	// subscriptions, so long-lived SSE handlers return and Shutdown can
	// drain instead of hanging on them until the timeout
	if err := sched.Close(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// runServer drives the TCP demo job: one short ASGD run over real sockets.
func runServer(addr string, workers, updates int) error {
	fmt.Fprintf(os.Stderr, "asyncd: waiting for %d workers on %s\n", workers, addr)
	eng, err := async.New(
		async.WithWorkers(workers),
		async.WithTransport(async.TCP(addr)),
		async.WithPartitions(2*workers),
	)
	if err != nil {
		return err
	}
	defer eng.Close()
	fmt.Fprintf(os.Stderr, "asyncd: %d workers connected\n", workers)

	d, err := dataset.Generate(dataset.MNIST8MLike(dataset.ScaleTiny, 7))
	if err != nil {
		return err
	}
	_, fstar, err := opt.ReferenceOptimum(d)
	if err != nil {
		return err
	}
	start := time.Now()
	// asgd dispatches registered ops (serializable args), not closures, so
	// the whole job runs across the TCP transport.
	res, err := eng.Solve(context.Background(), "asgd", d, async.SolveOptions{
		Params: opt.Params{
			Step:       opt.Scaled{Base: opt.InvSqrt{A: 0.5 / float64(d.NumCols())}, Factor: float64(workers)},
			SampleFrac: 0.5,
			Updates:    updates,
		},
		FStar: fstar,
	})
	if err != nil {
		return err
	}
	fmt.Printf("ASGD over TCP: %d updates in %v, final error %.4g\n",
		updates, time.Since(start).Round(time.Millisecond), res.Trace.FinalError())
	fmt.Print(res.Trace.FormatWait())
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "asyncd: "+format+"\n", args...)
	os.Exit(1)
}
