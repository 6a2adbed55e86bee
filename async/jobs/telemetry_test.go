package jobs_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/async"
	"repro/async/jobs"
	"repro/async/jobs/store"
)

var (
	gateTel  = newGate("gate-tel")
	gateTelR = newGate("gate-tel-restart")
)

func init() {
	for _, g := range []*gate{gateTel, gateTelR} {
		if err := async.Register(g); err != nil {
			panic(err)
		}
	}
}

// Exposition grammar of the Prometheus 0.0.4 text format, per line — the
// same structural check internal/telemetry applies to its own output,
// repeated here against the full serving endpoint (scheduler families plus
// the process-global layers).
var (
	promHelpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (NaN|[+-]?Inf|[+-]?[0-9].*)$`)
)

// validateExposition fails the test on any line that does not parse under
// the exposition grammar, any duplicated TYPE, or any sample without one.
func validateExposition(t *testing.T, body string) map[string]string {
	t.Helper()
	typed := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Text()
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !promHelpRe.MatchString(line) {
				t.Fatalf("line %d: bad HELP: %q", ln, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			m := promTypeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: bad TYPE: %q", ln, line)
			}
			if _, dup := typed[m[1]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln, m[1])
			}
			typed[m[1]] = m[2]
		case strings.HasPrefix(line, "#"):
			// comment
		default:
			m := promSampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: bad sample: %q", ln, line)
			}
			name := m[1]
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if _, ok := typed[name]; !ok {
				if _, ok := typed[base]; !ok {
					t.Fatalf("line %d: sample %s has no TYPE", ln, name)
				}
			}
			if v := m[len(m)-1]; v != "NaN" && !strings.HasSuffix(v, "Inf") {
				if _, err := strconv.ParseFloat(v, 64); err != nil {
					t.Fatalf("line %d: bad value %q: %v", ln, v, err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return typed
}

func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// sampleValue extracts the value of a bare (unlabeled) sample.
func sampleValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
			if err != nil {
				t.Fatalf("sample %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("sample %s not found in:\n%s", name, body)
	return 0
}

// TestMetricsExpositionGrammar validates the whole /v1/metrics payload
// against the text-format grammar — label escaping included (the tenant name
// carries a quote, a backslash, and a newline) — and pins that all five
// instrumented layers expose families, and that counters are monotonic
// across scrapes.
func TestMetricsExpositionGrammar(t *testing.T) {
	dir := t.TempDir()
	w, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := newScheduler(t, jobs.Config{Engines: 1, Store: w})
	srv := httptest.NewServer(jobs.NewHandler(s))
	defer srv.Close()

	spec := gateSpec(gateTel, 61)
	spec.Tenant = "we\"ird\\ten\nant"
	id := postJob(t, srv.URL, spec)
	expectStart(t, gateTel, 61)
	release(t, gateTel)
	waitState(t, s, id, jobs.StateDone)

	body := scrape(t, srv.URL)
	typed := validateExposition(t, body)

	for _, fam := range []string{
		// serving layer (scheduler-private registry)
		"asyncd_jobs_submitted_total", "asyncd_jobs_done_total",
		"asyncd_queue_wait_seconds", "asyncd_tenant_jobs_submitted_total",
		"asyncd_wal_appends_total",
		// core coordinator
		"async_core_tasks_dispatched_total", "async_core_staleness",
		"async_core_task_wait_seconds",
		// opt runtime
		"async_opt_apply_seconds", "async_opt_lazy_settle_backlog",
		"async_opt_checkpoint_save_seconds",
		// WAL store
		"async_wal_append_seconds", "async_wal_fsync_seconds",
		"async_wal_size_bytes",
		// wire codec
		"async_wire_tx_frames_total", "async_wire_rx_bytes_total",
		// broadcast fetch path and worker caches
		"async_broadcast_fetches_total", "async_broadcast_cache_evictions_total",
		"async_broadcast_cache_versions",
	} {
		if _, ok := typed[fam]; !ok {
			t.Errorf("family %s missing a TYPE line", fam)
		}
	}

	// the hostile tenant name must round-trip escaped
	if !strings.Contains(body, `asyncd_tenant_jobs_submitted_total{tenant="we\"ird\\ten\nant"} 1`) {
		t.Fatalf("tenant label not escaped:\n%s", body)
	}
	// the dispatch observed the per-priority queue-wait histogram
	if !strings.Contains(body, `asyncd_queue_wait_seconds_count{priority="0"} 1`) {
		t.Fatalf("queue-wait histogram not observed:\n%s", body)
	}

	// counters never move backwards between scrapes
	first := map[string]float64{}
	for _, c := range []string{"asyncd_jobs_submitted_total", "asyncd_jobs_done_total", "asyncd_wal_appends_total"} {
		first[c] = sampleValue(t, body, c)
	}
	id2 := postJob(t, srv.URL, gateSpec(gateTel, 62))
	expectStart(t, gateTel, 62)
	release(t, gateTel)
	waitState(t, s, id2, jobs.StateDone)
	body2 := scrape(t, srv.URL)
	validateExposition(t, body2)
	for c, v := range first {
		if got := sampleValue(t, body2, c); got < v {
			t.Errorf("counter %s went backwards: %v -> %v", c, v, got)
		}
	}
}

// TestCountersSurviveRestart pins the recovery-side counter rebuild: after a
// WAL replay the Prometheus counters reflect the replayed terminal jobs
// instead of resetting to zero.
func TestCountersSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	w1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := newScheduler(t, jobs.Config{Engines: 1, Store: w1})
	doneID, err := s1.Submit(jobs.Spec{
		Algorithm: gateTelR.name, Dataset: jobs.DatasetSpec{Name: "rcv1-like"},
		Updates: 71, Tenant: "acme",
	})
	if err != nil {
		t.Fatal(err)
	}
	expectStart(t, gateTelR, 71)
	queuedID, err := s1.Submit(gateSpec(gateTelR, 72)) // waits behind the gate
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Cancel(queuedID); err != nil {
		t.Fatal(err)
	}
	release(t, gateTelR)
	waitState(t, s1, doneID, jobs.StateDone)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	w1.Close()

	w2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	s2 := newScheduler(t, jobs.Config{Engines: 1, Store: w2})
	st := s2.Stats()
	if st.Submitted != 2 || st.Done != 1 || st.Canceled != 1 {
		t.Fatalf("replayed counters submitted=%d done=%d canceled=%d, want 2/1/1", st.Submitted, st.Done, st.Canceled)
	}
	if ts, ok := st.Tenants["acme"]; !ok || ts.Submitted != 1 {
		t.Fatalf("tenant counters not rebuilt: %+v", st.Tenants)
	}
	srv := httptest.NewServer(jobs.NewHandler(s2))
	defer srv.Close()
	body := scrape(t, srv.URL)
	validateExposition(t, body)
	if got := sampleValue(t, body, "asyncd_jobs_done_total"); got != 1 {
		t.Fatalf("asyncd_jobs_done_total after restart = %v, want 1", got)
	}
	if got := sampleValue(t, body, "asyncd_jobs_submitted_total"); got != 2 {
		t.Fatalf("asyncd_jobs_submitted_total after restart = %v, want 2", got)
	}
}

var (
	gateAgree  = newGate("gate-agree")
	pgateAgree = newPGate("pgate-agree")
	flakyAgree = &flakySolver{name: "flaky-agree", failN: 1}
	failAgree  = &flakySolver{name: "fail-agree", failN: 1 << 30}
)

func init() {
	for _, s := range []async.Solver{gateAgree, pgateAgree, flakyAgree, failAgree} {
		if err := async.Register(s); err != nil {
			panic(err)
		}
	}
}

// scrapeSamples maps every sample of a scrape, series (name and labels) to
// value.
func scrapeSamples(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// assertStatsMatchScrape checks that Stats and one scrape taken right after
// it report the same numbers: every counter, the live gauges, every tenant's
// series (and no tenant beyond Stats.Tenants), and in replica mode the
// fencing, adoption and failover-latency figures. The scheduler must be
// quiescent.
func assertStatsMatchScrape(t *testing.T, s *jobs.Scheduler) {
	t.Helper()
	st := s.Stats()
	m := scrapeSamples(t, promText(s))
	eq := func(series string, want float64) {
		t.Helper()
		got, ok := m[series]
		if !ok {
			t.Errorf("scrape has no %s (Stats says %v)", series, want)
		} else if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%s = %v, Stats says %v", series, got, want)
		}
	}
	eq("asyncd_jobs_submitted_total", float64(st.Submitted))
	eq("asyncd_jobs_rejected_total", float64(st.Rejected))
	eq("asyncd_jobs_done_total", float64(st.Done))
	eq("asyncd_jobs_failed_total", float64(st.Failed))
	eq("asyncd_jobs_canceled_total", float64(st.Canceled))
	eq("asyncd_jobs_preempted_total", float64(st.Preempted))
	eq("asyncd_jobs_retried_total", float64(st.Retries))
	eq("asyncd_store_errors_total", float64(st.StoreErrors))
	eq("asyncd_jobs_queued", float64(st.Queued))
	eq("asyncd_jobs_running", float64(st.Running))
	eq("asyncd_engines_live", float64(st.EnginesLive))
	eq("asyncd_recovered_jobs", float64(st.RecoveredJobs))
	eq("asyncd_recovery_seconds", st.RecoveryMS/1000)
	eq("asyncd_queue_wait_avg_seconds", st.AvgQueueWaitMS/1000)
	eq("asyncd_queue_wait_max_seconds", st.MaxQueueWaitMS/1000)
	tenantSeries := 0
	for series := range m {
		if strings.HasPrefix(series, "asyncd_tenant_jobs_") {
			tenantSeries++
		}
	}
	if want := 4 * len(st.Tenants); tenantSeries != want {
		t.Errorf("scrape has %d per-tenant job series, Stats lists %d tenants", tenantSeries, len(st.Tenants))
	}
	for name, ts := range st.Tenants {
		label := fmt.Sprintf("{tenant=%q}", name)
		eq("asyncd_tenant_jobs_submitted_total"+label, float64(ts.Submitted))
		eq("asyncd_tenant_jobs_rejected_total"+label, float64(ts.Rejected))
		eq("asyncd_tenant_jobs_queued"+label, float64(ts.Queued))
		eq("asyncd_tenant_jobs_running"+label, float64(ts.Running))
	}
	if st.Replica == "" {
		return
	}
	eq("asyncd_fenced_total", float64(st.Fenced))
	eq("asyncd_jobs_adopted_total", float64(st.Adopted))
	eq("asyncd_leases_held", float64(st.LeasesHeld))
	eq("asyncd_remote_jobs", float64(st.RemoteJobs))
	n := m["asyncd_failover_seconds_count"]
	if n != float64(st.Adopted) {
		t.Errorf("%v failover latencies observed for %d adoptions", n, st.Adopted)
	}
	if n == 0 {
		if st.FailoverMS != 0 {
			t.Errorf("FailoverMS %v with no failover observed", st.FailoverMS)
		}
		return
	}
	eq("asyncd_failover_seconds_sum", st.FailoverMS/1000*n)
}

// TestStatsAgreeWithScrape runs a mixed workload over two tenants — done,
// failed, canceled, rejected by a full queue and by a tenant quota,
// preempted, retried — and pins that Stats and the scrape agree on every
// number, before and after a restart over the same store; then a kill
// failover over a shared directory pins the replica-mode figures.
func TestStatsAgreeWithScrape(t *testing.T) {
	flakyAgree.attempts.Store(0) // its one transient failure, again under -count
	dir := t.TempDir()
	w1, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := jobs.Config{Engines: 1, QueueDepth: 2, TenantQuota: 1, Store: w1}
	s1 := newScheduler(t, cfg)
	submit := func(spec jobs.Spec, tenant string) (jobs.ID, error) {
		spec.Tenant = tenant
		return s1.Submit(spec)
	}
	preempted, err := submit(gateSpec2(pgateAgree.name, 21), "alice")
	if err != nil {
		t.Fatal(err)
	}
	expectStartTag(t, pgateAgree.starts, 21)
	queued, err := submit(gateSpec(gateAgree, 22), "bob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(gateSpec(gateAgree, 23), "bob"); !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("submit past bob's quota: %v, want ErrQueueFull", err)
	}
	canceled, err := submit(gateSpec(gateAgree, 24), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(gateSpec(gateAgree, 25), ""); !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("submit past the queue depth: %v, want ErrQueueFull", err)
	}
	if err := s1.Cancel(canceled); err != nil {
		t.Fatal(err)
	}
	assertStatsMatchScrape(t, s1) // one running, one queued

	if err := s1.Preempt(preempted); err != nil {
		t.Fatal(err)
	}
	expectStart(t, gateAgree, 22)
	release(t, gateAgree)
	waitState(t, s1, queued, jobs.StateDone)
	expectResume(t, pgateAgree, 21)
	releasePG(t, pgateAgree)
	waitState(t, s1, preempted, jobs.StateDone)
	retried, err := submit(flakySpec(flakyAgree.name, 26), "alice")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, retried, jobs.StateDone)
	failing := flakySpec(failAgree.name, 27)
	failing.MaxRetries = -1
	failed, err := submit(failing, "bob")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, failed, jobs.StateFailed)

	st := s1.Stats()
	if st.Submitted != 5 || st.Rejected != 2 || st.Done != 3 || st.Failed != 1 ||
		st.Canceled != 1 || st.Preempted != 1 || st.Retries != 1 {
		t.Fatalf("workload counted %+v", st)
	}
	if al, bo := st.Tenants["alice"], st.Tenants["bob"]; len(st.Tenants) != 2 ||
		al.Submitted != 3 || al.Rejected != 0 || al.Done != 2 ||
		bo.Submitted != 2 || bo.Rejected != 1 || bo.Done != 1 {
		t.Fatalf("tenants counted %+v", st.Tenants)
	}
	assertStatsMatchScrape(t, s1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	w1.Close()

	w2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	cfg.Store = w2
	s2 := newScheduler(t, cfg)
	if st := s2.Stats(); st.Submitted != 5 || st.Done != 3 || st.Failed != 1 ||
		st.Canceled != 1 || st.Preempted != 1 || st.RecoveredJobs != 5 {
		t.Fatalf("replay rebuilt %+v", st)
	}
	assertStatsMatchScrape(t, s2)

	shared := t.TempDir()
	shA, err := store.OpenShared(shared, "a", store.SharedOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	sA := newScheduler(t, replicaConfig(shA, "a"))
	orphan, err := sA.Submit(gateSpec(gateAgree, 28))
	if err != nil {
		t.Fatal(err)
	}
	expectStart(t, gateAgree, 28)
	sA.Kill()
	shA.Kill()
	shB, err := store.OpenShared(shared, "b", store.SharedOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer shB.Close()
	sB := newScheduler(t, replicaConfig(shB, "b"))
	expectStart(t, gateAgree, 28) // adopted once a's lease lapses
	release(t, gateAgree)
	waitState(t, sB, orphan, jobs.StateDone)
	if st := sB.Stats(); st.Adopted != 1 || st.FailoverMS <= 0 {
		t.Fatalf("survivor adopted %d, failover %v ms", st.Adopted, st.FailoverMS)
	}
	assertStatsMatchScrape(t, sB)
}

// TestTraceEndpointAndPprof pins the live-observability endpoints: the
// per-job JSONL trace download and the pprof index.
func TestTraceEndpointAndPprof(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	srv := httptest.NewServer(jobs.NewHandler(s))
	defer srv.Close()

	id := postJob(t, srv.URL, gateSpec(gateTel, 63))
	expectStart(t, gateTel, 63)
	release(t, gateTel)
	waitState(t, s, id, jobs.StateDone)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + string(id) + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content type %q", ct)
	}
	events := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("trace line %q not JSON: %v", sc.Text(), err)
		}
		if m["run"] != string(id) {
			t.Fatalf("trace line for run %v, want %s", m["run"], id)
		}
		ev, _ := m["event"].(string)
		events[ev] = true
	}
	for _, want := range []string{"queued", "dispatched", "done"} {
		if !events[want] {
			t.Fatalf("trace missing %q event; got %v", want, events)
		}
	}

	if resp, err := http.Get(srv.URL + "/v1/jobs/nope/trace"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown-job trace status %d, want 404", resp.StatusCode)
		}
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Fatalf("%s returned an empty body", path)
		}
	}
}

// TestRunStatsInStatus pins satellite coordination stats: a real solver run
// surfaces the coordinator's staleness histogram and per-worker waits
// through the job snapshot and its HTTP payload.
func TestRunStatsInStatus(t *testing.T) {
	s := newScheduler(t, jobs.Config{
		Engines:       1,
		EngineOptions: []async.Option{async.WithWorkers(2), async.WithPartitions(2)},
	})
	srv := httptest.NewServer(jobs.NewHandler(s))
	defer srv.Close()

	id, err := s.Submit(jobs.Spec{
		Algorithm:     "asgd",
		Dataset:       jobs.DatasetSpec{Name: "rcv1-like"},
		Step:          jobs.StepSpec{Kind: "const", A: 0.01},
		Updates:       200,
		SnapshotEvery: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if job.RunStats == nil {
		t.Fatal("terminal job carries no RunStats")
	}
	if job.RunStats.Updates < 200 {
		t.Fatalf("RunStats.Updates = %d, want >= 200", job.RunStats.Updates)
	}
	if job.RunStats.Staleness.Count <= 0 {
		t.Fatalf("staleness histogram empty: %+v", job.RunStats.Staleness)
	}
	if job.RunStats.Wait.Workers != 2 {
		t.Fatalf("wait summary workers = %d, want 2", job.RunStats.Wait.Workers)
	}
	// one wait summary: the snapshot's, the terminal event's and the run
	// statistics' are the same figures
	events, stop, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var terminal jobs.Event
	for ev := range events {
		terminal = ev
	}
	if terminal.Type != jobs.EventDone || terminal.Wait == nil || job.Wait == nil ||
		*terminal.Wait != job.RunStats.Wait || *job.Wait != job.RunStats.Wait {
		t.Fatalf("wait summaries differ: event %s %+v, job %+v, run stats %+v",
			terminal.Type, terminal.Wait, job.Wait, job.RunStats.Wait)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + string(id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		RunStats *async.RunStats `json:"run_stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.RunStats == nil || payload.RunStats.Staleness.Count <= 0 {
		t.Fatalf("HTTP status payload missing run_stats: %+v", payload.RunStats)
	}
}
