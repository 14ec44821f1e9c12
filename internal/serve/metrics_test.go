package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mndmst"
	"mndmst/internal/obs"
	"mndmst/internal/trace"
)

// scrape fetches and parses the server's /metrics exposition.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type %q, want %q", ct, obs.ContentType)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return samples
}

// TestMetricsMatchStatsAndTrace is the observability acceptance check: a
// live server's /metrics exposition must parse as Prometheus text and its
// job counts, cache counters, and last-run phase gauges must agree with
// /v1/stats and with the trace records a direct library run produces.
func TestMetricsMatchStatsAndTrace(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 2, GraphDir: t.TempDir()}, nil)

	// Two identical jobs: one cold compute, one cache hit.
	body := `{"graph":{"profile":"road_usa","scale":0.02},"options":{"nodes":2},"wait":true}`
	for i := 0; i < 2; i++ {
		resp, raw := postJob(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d: %d: %s", i, resp.StatusCode, raw)
		}
	}
	// One job fails: its graph file is missing from the graph directory.
	job, err := s.Submit(JobRequest{Graph: GraphSpec{Path: "missing.mnd"}})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if job.State() != StateFailed {
		t.Fatalf("missing graph ended %s, want failed", job.State())
	}
	// One submission is rejected because the server is draining.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobRequest{Graph: testGraphSpec}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}

	var st Stats
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	got := scrape(t, ts.URL)

	// Every counter field of /v1/stats is read back from its /metrics
	// series, so each pair must agree exactly.
	pairs := map[string]int64{
		`mndmst_serve_jobs_submitted_total`:         st.JobsSubmitted,
		`mndmst_serve_jobs_total{state="done"}`:     st.JobsCompleted,
		`mndmst_serve_jobs_total{state="failed"}`:   st.JobsFailed,
		`mndmst_serve_jobs_total{state="canceled"}`: st.JobsCanceled,
		`mndmst_serve_jobs_retried_total`:           st.JobsRetried,
		`mndmst_serve_jobs_degraded_total`:          st.JobsDegraded,
		`mndmst_serve_jobs_drain_canceled_total`:    st.JobsDrainCanceled,
		`mndmst_serve_result_cache_hits_total`:      st.ResultCacheHits,
		`mndmst_serve_result_cache_misses_total`:    st.Computations,
		`mndmst_serve_result_cache_coalesced_total`: st.ResultCacheCoalesced,
		`mndmst_serve_graph_cache_hits_total`:       st.GraphCacheHits,
		`mndmst_serve_graph_cache_loads_total`:      st.GraphCacheLoads,
		`mndmst_serve_graph_cache_evictions_total`:  st.GraphCacheEvictions,
	}
	for name, want := range pairs {
		v, ok := got[name]
		if !ok {
			t.Errorf("%s missing from /metrics", name)
		}
		if v != float64(want) {
			t.Errorf("%s = %g, /v1/stats says %d", name, v, want)
		}
	}
	rejected := got[`mndmst_serve_admission_rejects_total{reason="queue_full"}`] +
		got[`mndmst_serve_admission_rejects_total{reason="draining"}`]
	if rejected != float64(st.JobsRejected) {
		t.Errorf("admission rejects sum to %g, /v1/stats says %d", rejected, st.JobsRejected)
	}
	if st.JobsSubmitted != 3 || st.JobsFailed != 1 || st.JobsRejected != 1 ||
		got[`mndmst_serve_admission_rejects_total{reason="draining"}`] != 1 {
		t.Fatalf("unexpected stats shape: %+v", st)
	}
	if st.JobsCompleted != 2 || st.Computations != 1 || st.ResultCacheHits != 1 {
		t.Fatalf("unexpected stats shape: %+v", st)
	}

	// The job latency histogram saw one hot observation and two cold ones:
	// the compute and the failed job, which started before its load failed.
	if got[`mndmst_serve_job_seconds_count{cache="cold"}`] != 2 {
		t.Errorf("cold latency count = %g, want 2", got[`mndmst_serve_job_seconds_count{cache="cold"}`])
	}
	if got[`mndmst_serve_job_seconds_count{cache="hot"}`] != 1 {
		t.Errorf("hot latency count = %g, want 1", got[`mndmst_serve_job_seconds_count{cache="hot"}`])
	}

	// The cold compute published the run gauges; they must match the
	// aggregation of the trace records a direct, deterministic library run
	// produces for the same request.
	g, err := mndmst.GenerateProfile("road_usa", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mndmst.FindMSF(g, mndmst.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Trace.Records()
	var simMax float64
	var ranks, bytes int64
	phaseCompute := map[string]float64{}
	for _, r := range recs {
		switch r.Kind {
		case "rank":
			ranks++
			simMax = max(simMax, r.Total)
			bytes += r.BytesSent
		case "phase":
			phaseCompute[r.Phase] = max(phaseCompute[r.Phase], r.Compute)
		}
	}
	if got["mndmst_run_ranks"] != float64(ranks) {
		t.Errorf("mndmst_run_ranks = %g, trace says %d", got["mndmst_run_ranks"], ranks)
	}
	if got["mndmst_run_sim_seconds"] != simMax {
		t.Errorf("mndmst_run_sim_seconds = %g, trace says %g", got["mndmst_run_sim_seconds"], simMax)
	}
	if got["mndmst_run_bytes_sent"] != float64(bytes) {
		t.Errorf("mndmst_run_bytes_sent = %g, trace says %d", got["mndmst_run_bytes_sent"], bytes)
	}
	if len(phaseCompute) == 0 {
		t.Fatal("direct run produced no phase records")
	}
	for phase, want := range phaseCompute {
		key := fmt.Sprintf(`mndmst_run_phase_compute_seconds{phase=%q}`, phase)
		if got[key] != want {
			t.Errorf("%s = %g, trace says %g", key, got[key], want)
		}
	}
}

// TestMetricsSharedRegistry: a caller-provided registry is served at
// /metrics and usable for its own series alongside the server's.
func TestMetricsSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("my_app_info_total", "caller-owned series").Inc()
	s, ts := newHTTPServer(t, Config{Workers: 1, Metrics: reg}, nil)
	if s.Metrics() != reg {
		t.Fatal("Metrics() did not return the provided registry")
	}
	got := scrape(t, ts.URL)
	if got["my_app_info_total"] != 1 {
		t.Fatalf("caller-owned series missing from /metrics: %v", got)
	}
}

// TestRetryAfterDerived is the regression test for the hardcoded
// Retry-After "1": the hint must scale with the observed backlog-to-rate
// ratio, so a saturated slow server answers with a larger hint than a
// near-empty one.
func TestRetryAfterDerived(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4}, newGate())

	// Near-empty, no rate sample yet: the floor.
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("empty-queue hint = %d, want 1", got)
	}

	// Seed the observed state directly: 4 queued jobs draining at one
	// dequeue per 2 seconds must hint roughly 8 seconds.
	base := time.Now()
	s.mu.Lock()
	for i := 0; i < 5; i++ {
		s.noteDequeue(base.Add(time.Duration(i) * 2 * time.Second))
	}
	s.queued = 4
	s.mu.Unlock()
	saturated := s.retryAfterSeconds()
	if saturated != 8 {
		t.Fatalf("saturated hint = %d, want 8 (4 queued / 0.5 per sec)", saturated)
	}

	// The same rate with an empty queue drops back to the floor: the
	// saturated hint must exceed the near-empty one.
	s.mu.Lock()
	s.queued = 0
	s.mu.Unlock()
	nearEmpty := s.retryAfterSeconds()
	if nearEmpty != 1 {
		t.Fatalf("near-empty hint = %d, want 1", nearEmpty)
	}
	if saturated <= nearEmpty {
		t.Fatalf("saturated hint %d not greater than near-empty hint %d", saturated, nearEmpty)
	}

	// A stalled server (huge backlog, slow rate) is capped, not unbounded.
	s.mu.Lock()
	s.queued = 100000
	s.mu.Unlock()
	if got := s.retryAfterSeconds(); got != retryAfterCap {
		t.Fatalf("stalled hint = %d, want cap %d", got, retryAfterCap)
	}
	s.mu.Lock()
	s.queued = 0
	s.dequeues = s.dequeues[:0]
	s.mu.Unlock()
}

// TestRetryAfterHeader: the 429 response carries the derived hint.
func TestRetryAfterHeader(t *testing.T) {
	gt := newGate()
	s, ts := newHTTPServer(t, Config{Workers: 1, QueueDepth: 1}, gt)

	body := `{"graph":{"profile":"road_usa","scale":0.02},"options":{"nodes":2}}`
	// One job blocks the worker, one fills the queue; the third is a 429.
	if _, err := s.Submit(JobRequest{Graph: testGraphSpec}); err != nil {
		t.Fatal(err)
	}
	<-gt.entered
	if _, err := s.Submit(JobRequest{Graph: testGraphSpec}); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJob(t, ts, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 || secs > retryAfterCap {
		t.Fatalf("Retry-After %q: not an integer in [1, %d] (err %v)",
			resp.Header.Get("Retry-After"), retryAfterCap, err)
	}
}

// TestStatsRaceWithCompletion drives /v1/stats and job-status polling
// concurrently with job completions. Run under -race this is the
// regression test for unlocked reads of per-job fields on the status
// path (the satellite audit found Status/State/Err/Record all correctly
// locked; this keeps it that way).
func TestStatsRaceWithCompletion(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 4, QueueDepth: 64}, nil)

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	poll := func(url string) {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("poll %s: %v", url, err)
				return
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Errorf("poll %s: %v", url, err)
			}
			resp.Body.Close()
		}
	}

	const jobs = 12
	ids := make(chan string, jobs)
	var clients sync.WaitGroup
	for i := 0; i < jobs; i++ {
		clients.Add(1)
		go func(i int) {
			defer clients.Done()
			// Distinct scales defeat the result cache so completions keep
			// mutating job state while the pollers read it.
			body := fmt.Sprintf(
				`{"graph":{"profile":"road_usa","scale":0.0%d},"options":{"nodes":2},"include_trace":true,"wait":true}`,
				1+i%3)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			var js JobStatus
			if err := decodeBody(resp, &js); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			if js.State != string(StateDone) {
				t.Errorf("job ended %s: %s", js.State, js.Error)
			}
			ids <- js.ID
		}(i)
	}

	// Stats and metrics pollers race every completion above; job-status
	// pollers chase individual jobs as soon as their ids are known.
	pollers.Add(2)
	go poll(ts.URL + "/v1/stats")
	go poll(ts.URL + "/metrics")
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			case id := <-ids:
				code := getJSON(t, ts.URL+"/v1/jobs/"+id, nil)
				if code != http.StatusOK {
					t.Errorf("job %s: %d", id, code)
				}
			default:
			}
		}
	}()

	clients.Wait()
	close(stop)
	pollers.Wait()
}

func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, v)
}

// TestPublishRecordsAggregation pins the Publish aggregation semantics:
// seconds are maxima across ranks (makespan), traffic is summed.
func TestPublishRecordsAggregation(t *testing.T) {
	recs := []trace.Record{
		{Kind: "rank", Rank: 0, Total: 2.0, Wall: 0.5, BytesSent: 100, Msgs: 10},
		{Kind: "rank", Rank: 1, Total: 3.0, Wall: 0.25, BytesSent: 50, Msgs: 5},
		{Kind: "phase", Rank: 0, Phase: "merge", Compute: 1.0, Comm: 0.5, BytesSent: 60, Msgs: 6},
		{Kind: "phase", Rank: 1, Phase: "merge", Compute: 1.5, Comm: 0.25, BytesSent: 40, Msgs: 4},
	}
	reg := obs.NewRegistry()
	trace.PublishRecords(reg, recs)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"mndmst_run_ranks":                                2,
		"mndmst_run_sim_seconds":                          3.0,
		"mndmst_run_wall_seconds":                         0.5,
		"mndmst_run_bytes_sent":                           150,
		"mndmst_run_msgs":                                 15,
		`mndmst_run_phase_compute_seconds{phase="merge"}`: 1.5,
		`mndmst_run_phase_comm_seconds{phase="merge"}`:    0.5,
		`mndmst_run_phase_bytes_sent{phase="merge"}`:      100,
		`mndmst_run_phase_msgs{phase="merge"}`:            10,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	// Publishing on a nil registry is a no-op, not a panic.
	trace.PublishRecords(nil, recs)
}
