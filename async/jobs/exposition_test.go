package jobs_test

import (
	"bytes"
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/async"
	"repro/async/jobs"
	"repro/async/jobs/store"
)

var gateExpo = newGate("gate-expo")

func init() {
	if err := async.Register(gateExpo); err != nil {
		panic(err)
	}
}

// soleOwnerFamilies is the HELP and TYPE line of every asyncd_* family a
// scheduler over a store exposes.
var soleOwnerFamilies = []string{
	"# HELP asyncd_degraded 1 while the store is erroring and submissions are rejected.",
	"# TYPE asyncd_degraded gauge",
	"# HELP asyncd_engines_live Engines spun up in the pool.",
	"# TYPE asyncd_engines_live gauge",
	"# HELP asyncd_engines_max Engine-pool ceiling.",
	"# TYPE asyncd_engines_max gauge",
	"# HELP asyncd_jobs_canceled_total Jobs canceled before completion.",
	"# TYPE asyncd_jobs_canceled_total counter",
	"# HELP asyncd_jobs_completed_per_second Completed jobs per second of uptime.",
	"# TYPE asyncd_jobs_completed_per_second gauge",
	"# HELP asyncd_jobs_done_total Jobs completed successfully.",
	"# TYPE asyncd_jobs_done_total counter",
	"# HELP asyncd_jobs_failed_total Jobs that terminated with an error.",
	"# TYPE asyncd_jobs_failed_total counter",
	"# HELP asyncd_jobs_preempted_total Mid-run preemptions (priority, SLO, or explicit).",
	"# TYPE asyncd_jobs_preempted_total counter",
	"# HELP asyncd_jobs_queued Jobs waiting for an engine (preempted included).",
	"# TYPE asyncd_jobs_queued gauge",
	"# HELP asyncd_jobs_rejected_total Jobs rejected by admission control (queue depth or tenant quota).",
	"# TYPE asyncd_jobs_rejected_total counter",
	"# HELP asyncd_jobs_retried_total Transient run failures re-queued under Spec.MaxRetries.",
	"# TYPE asyncd_jobs_retried_total counter",
	"# HELP asyncd_jobs_running Jobs holding an engine.",
	"# TYPE asyncd_jobs_running gauge",
	"# HELP asyncd_jobs_submitted_total Jobs accepted by Submit.",
	"# TYPE asyncd_jobs_submitted_total counter",
	"# HELP asyncd_queue_depth_limit Bound on the waiting queue.",
	"# TYPE asyncd_queue_depth_limit gauge",
	"# HELP asyncd_queue_wait_avg_seconds Mean queue wait of dispatched runs.",
	"# TYPE asyncd_queue_wait_avg_seconds gauge",
	"# HELP asyncd_queue_wait_max_seconds Max queue wait of dispatched runs.",
	"# TYPE asyncd_queue_wait_max_seconds gauge",
	"# HELP asyncd_queue_wait_seconds Queue wait before dispatch, by priority.",
	"# TYPE asyncd_queue_wait_seconds histogram",
	"# HELP asyncd_recovered_jobs Jobs rebuilt by the boot-time replay.",
	"# TYPE asyncd_recovered_jobs gauge",
	"# HELP asyncd_recovery_seconds Wall time of the boot-time log replay.",
	"# TYPE asyncd_recovery_seconds gauge",
	"# HELP asyncd_store_errors_total Store operations that failed after recovery.",
	"# TYPE asyncd_store_errors_total counter",
	"# HELP asyncd_tenant_jobs_queued Jobs waiting, by tenant.",
	"# TYPE asyncd_tenant_jobs_queued gauge",
	"# HELP asyncd_tenant_jobs_rejected_total Jobs rejected, by tenant.",
	"# TYPE asyncd_tenant_jobs_rejected_total counter",
	"# HELP asyncd_tenant_jobs_running Jobs holding an engine, by tenant.",
	"# TYPE asyncd_tenant_jobs_running gauge",
	"# HELP asyncd_tenant_jobs_submitted_total Jobs accepted, by tenant.",
	"# TYPE asyncd_tenant_jobs_submitted_total counter",
	"# HELP asyncd_tenant_queue_wait_seconds Queue wait before dispatch, by tenant.",
	"# TYPE asyncd_tenant_queue_wait_seconds histogram",
	"# HELP asyncd_uptime_seconds Seconds since the scheduler was built.",
	"# TYPE asyncd_uptime_seconds gauge",
	"# HELP asyncd_wal_appends_total Durably acknowledged log records.",
	"# TYPE asyncd_wal_appends_total counter",
	"# HELP asyncd_wal_checkpoint_spills_total Durable checkpoint files written.",
	"# TYPE asyncd_wal_checkpoint_spills_total counter",
	"# HELP asyncd_wal_compactions_total Log rewrites to the live set.",
	"# TYPE asyncd_wal_compactions_total counter",
	"# HELP asyncd_wal_fsync_seconds_count Fsyncs paid by the append path.",
	"# TYPE asyncd_wal_fsync_seconds_count counter",
	"# HELP asyncd_wal_fsync_seconds_sum Total fsync latency, seconds.",
	"# TYPE asyncd_wal_fsync_seconds_sum counter",
	"# HELP asyncd_wal_replayed_records Records the last open recovered.",
	"# TYPE asyncd_wal_replayed_records gauge",
	"# HELP asyncd_wal_size_bytes Current log size.",
	"# TYPE asyncd_wal_size_bytes gauge",
}

// replicaFamilies is what a replica exposes on top of soleOwnerFamilies.
var replicaFamilies = []string{
	"# HELP asyncd_failover_seconds Latency from an orphan's lease expiry to its adoption claim.",
	"# TYPE asyncd_failover_seconds histogram",
	"# HELP asyncd_fenced_appends_total Appends the shared store rejected with a stale fencing token.",
	"# TYPE asyncd_fenced_appends_total counter",
	"# HELP asyncd_fenced_total Runs abandoned after losing their lease (stale epoch).",
	"# TYPE asyncd_fenced_total counter",
	"# HELP asyncd_jobs_adopted_total Orphaned jobs adopted after their owner's lease expired.",
	"# TYPE asyncd_jobs_adopted_total counter",
	"# HELP asyncd_lease_claims_total Lease claims acknowledged by the shared store.",
	"# TYPE asyncd_lease_claims_total counter",
	"# HELP asyncd_lease_renewals_total Lease renewals acknowledged by the shared store.",
	"# TYPE asyncd_lease_renewals_total counter",
	"# HELP asyncd_leases_held Job leases this replica currently holds.",
	"# TYPE asyncd_leases_held gauge",
	"# HELP asyncd_remote_jobs Non-terminal jobs owned by other replicas.",
	"# TYPE asyncd_remote_jobs gauge",
}

// promText renders one scrape of the scheduler's /v1/metrics payload.
func promText(s *jobs.Scheduler) string {
	var b bytes.Buffer
	s.WritePrometheus(&b)
	return b.String()
}

// TestServingExpositionPinned pins the serving families of /v1/metrics —
// the HELP and TYPE line of every asyncd_* family, no more and no fewer —
// for a sole owner over a store and for a two-replica pair over one shared
// directory, and that the unnamed tenant never gets a tenant="" series:
// it submits, is rejected, waits and runs beside a named one.
func TestServingExpositionPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		want []string
		run  func(t *testing.T) []string // the scrapes to check
	}{
		{"sole owner", soleOwnerFamilies, func(t *testing.T) []string {
			w, err := store.Open(t.TempDir(), store.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			s := newScheduler(t, jobs.Config{Engines: 1, QueueDepth: 1, Store: w})
			running, err := s.Submit(gateSpec(gateExpo, 1))
			if err != nil {
				t.Fatal(err)
			}
			expectStart(t, gateExpo, 1)
			named := gateSpec(gateExpo, 2)
			named.Tenant = "acme"
			queued, err := s.Submit(named)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Submit(gateSpec(gateExpo, 3)); !errors.Is(err, jobs.ErrQueueFull) {
				t.Fatalf("submit past the queue depth: %v, want ErrQueueFull", err)
			}
			busy := promText(s)
			release(t, gateExpo)
			waitState(t, s, running, jobs.StateDone)
			expectStart(t, gateExpo, 2)
			release(t, gateExpo)
			waitState(t, s, queued, jobs.StateDone)
			return []string{busy, promText(s)}
		}},
		{"replica pair", append(append([]string{}, soleOwnerFamilies...), replicaFamilies...), func(t *testing.T) []string {
			dir := t.TempDir()
			var scheds []*jobs.Scheduler
			for _, r := range []string{"a", "b"} {
				sh, err := store.OpenShared(dir, r, store.SharedOptions{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				defer sh.Close()
				scheds = append(scheds, newScheduler(t, replicaConfig(sh, r)))
			}
			for i, s := range scheds {
				spec := gateSpec(gateExpo, 11+i)
				if i == 1 {
					spec.Tenant = "acme"
				}
				id, err := s.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				expectStart(t, gateExpo, 11+i)
				release(t, gateExpo)
				waitState(t, s, id, jobs.StateDone)
			}
			return []string{promText(scheds[0]), promText(scheds[1])}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := append([]string{}, tc.want...)
			sort.Strings(want)
			for i, body := range tc.run(t) {
				var got []string
				for _, line := range strings.Split(body, "\n") {
					if strings.HasPrefix(line, "# HELP asyncd_") || strings.HasPrefix(line, "# TYPE asyncd_") {
						got = append(got, line)
					}
					if strings.HasPrefix(line, "asyncd_tenant_") && strings.Contains(line, `tenant=""`) {
						t.Errorf("scrape %d: the unnamed tenant has a series: %s", i, line)
					}
				}
				sort.Strings(got)
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("scrape %d: asyncd_* families\n%s\nwant\n%s", i, strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
			}
		})
	}
}
