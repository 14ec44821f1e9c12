// Package serve turns the MND-MST library into a long-running job
// service — the layer that accepts, schedules, deduplicates, and answers
// repeated MSF requests the way an inference-serving stack fronts a
// model:
//
//   - a graph registry that loads .mnd containers, text edge lists, or
//     generator profiles on demand and caches the decoded graphs in a
//     byte-bounded LRU keyed by content digest, so jobs over the same
//     content share one in-memory copy however they named it;
//   - a bounded job queue with admission control: submissions beyond the
//     configured depth are rejected with a typed QueueFullError instead
//     of queuing unboundedly, and every job carries a deadline-bearing
//     context honoured both while queued and while running;
//   - a result cache keyed by (graph digest, options fingerprint, system)
//     with singleflight coalescing, so N concurrent identical requests
//     cost one computation and repeats are answered from memory;
//   - graceful drain: Shutdown stops admission, lets in-flight and queued
//     jobs finish (or cancels them when the drain context expires), and
//     guarantees no accepted job is lost or run twice.
//
// The HTTP surface (POST /v1/jobs, GET /v1/jobs/{id}, GET /v1/stats,
// GET /healthz) lives in http.go; cmd/mndmst-serve wires it to a socket
// and the process signal handlers.
//
// serve is a real-time layer by design: it reads the wall clock for
// deadlines and job accounting and owns its goroutine lifecycles, and is
// therefore exempt from the det-wallclock/go-hygiene simulation rules
// (like transport) while opting in to the err-drop delivery-path rule.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"mndmst"
	"mndmst/internal/cluster"
	"mndmst/internal/obs"
	"mndmst/internal/retry"
	"mndmst/internal/trace"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// Workers is the number of concurrent job executors (default 2).
	Workers int
	// QueueDepth bounds the number of admitted-but-not-yet-running jobs;
	// submissions beyond it fail with QueueFullError (default 64).
	QueueDepth int
	// GraphCacheBytes bounds the decoded-graph LRU (default 256 MiB). The
	// most recently used graph is always retained, even oversized.
	GraphCacheBytes int64
	// ResultCacheEntries bounds the result cache (default 1024 entries).
	ResultCacheEntries int
	// DefaultTimeout is applied to jobs that request no deadline
	// (0 = jobs without a requested deadline run unbounded).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (0 = no cap).
	MaxTimeout time.Duration
	// GraphDir is the directory file-based graph specs (path/text) are
	// resolved under; "" disables file loading entirely.
	GraphDir string
	// JobHistory bounds how many finished job records stay queryable via
	// Job/GET /v1/jobs/{id} (default 4096; oldest evicted first).
	JobHistory int
	// MaxAttempts is the default total attempt budget (first try
	// included) for jobs whose request does not set its own: a job whose
	// execution fails with an error classifying retry.Transient is re-run
	// until the budget, its original deadline, or a drain stops it
	// (default 3; 1 disables retry).
	MaxAttempts int
	// RetryBaseDelay and RetryMaxDelay shape the jittered exponential
	// backoff between job attempts (defaults 100ms and 2s).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// RetrySeed drives the deterministic backoff jitter; each job
	// decorrelates by its admission sequence number on top (0: derived
	// from the wall clock at New).
	RetrySeed int64
	// Logf, when non-nil, receives diagnostic messages (delivery failures
	// on the HTTP path); nil discards them.
	Logf func(format string, args ...any)
	// Metrics is the registry the server instruments (queue depth, job
	// counters, cache traffic, job latency, last-run phase gauges). nil:
	// the server creates a private registry. Either way Metrics() returns
	// it and Handler serves it at GET /metrics.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.GraphCacheBytes <= 0 {
		c.GraphCacheBytes = 256 << 20
	}
	if c.ResultCacheEntries <= 0 {
		c.ResultCacheEntries = 1024
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 4096
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 100 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 2 * time.Second
	}
	if c.RetrySeed == 0 {
		c.RetrySeed = time.Now().UnixNano()
	}
	return c
}

// QueueFullError is the typed admission-control rejection: the job queue
// already holds Depth jobs. Clients should back off and retry.
type QueueFullError struct {
	// Depth is the configured queue bound that was hit.
	Depth int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("serve: job queue full (depth %d); retry later", e.Depth)
}

// IsTransient classifies the rejection as retryable for retry.Transient:
// admission control is load, not failure — clients back off and resubmit.
func (e *QueueFullError) IsTransient() bool { return true }

// ErrDraining rejects submissions arriving after Shutdown began.
var ErrDraining = errors.New("serve: server is draining; not accepting jobs")

// ErrDrainCanceled marks a job killed because the drain deadline expired
// before it finished — the server's choice, not the client's. It is the
// cancellation cause on the job's context, so the retry engine (which
// must never resurrect a drain-canceled job) and the stats can tell a
// drain kill from a client deadline, which both surface as ctx
// cancellation.
var ErrDrainCanceled = errors.New("serve: job canceled by server drain deadline")

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle states. Every admitted job ends in exactly one of the
// three terminal states (done, failed, canceled).
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Job is one admitted MSF computation request moving through the queue.
type Job struct {
	id          string
	seq         int64 // admission sequence number; decorrelates backoff jitter
	req         JobRequest
	system      string
	opts        mndmst.Options
	fpr         string // options fingerprint (cache key part)
	maxAttempts int    // resolved attempt budget (request override or server default)

	ctx    context.Context
	cancel context.CancelFunc
	// drainCancel cancels the job's context with ErrDrainCanceled as the
	// cause; Shutdown uses it when the drain deadline expires, so the
	// terminal accounting can tell the server's kill from the client's.
	drainCancel context.CancelFunc

	mu        sync.Mutex
	state     JobState
	cacheHit  bool
	coalesced bool
	attempts  int  // executions actually started
	degraded  bool // answered by the local fallback after distributed attempts died
	result    *cacheEntry
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time

	done chan struct{}
}

// ID returns the job's server-assigned identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the terminal error of a failed or canceled job (nil
// otherwise, including while still in flight).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Record returns a copy of the result record of a done job (nil
// otherwise). The returned record always carries the forest edge ids;
// rendering layers strip them unless requested.
func (j *Job) Record() *Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return nil
	}
	return j.result.record()
}

// Attempts returns how many executions the job has started — 1 for a
// clean first-try job, more when transient failures were retried.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// noteAttempt records the start of execution attempt (0-based).
func (j *Job) noteAttempt(attempt int) {
	j.mu.Lock()
	j.attempts = attempt + 1
	j.mu.Unlock()
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish moves the job to its terminal state exactly once. It reports
// the execution duration and whether the job ever started running (false
// for jobs canceled while still queued), so the caller can feed the
// latency histogram without re-acquiring the job lock. The caller closes
// j.done once it has counted the job.
func (j *Job) finish(state JobState, result *cacheEntry, hit, coalesced bool, err error) (ran time.Duration, started bool) {
	j.mu.Lock()
	j.state = state
	j.result = result
	j.cacheHit = hit
	j.coalesced = coalesced
	j.err = err
	j.finished = time.Now()
	started = !j.started.IsZero()
	if started {
		ran = j.finished.Sub(j.started)
	}
	j.mu.Unlock()
	return ran, started
}

// Server is the MST job service: registry + queue + worker pool + result
// cache. Create with New, serve HTTP via Handler, stop with Shutdown.
type Server struct {
	cfg      Config
	registry *registry
	results  *resultCache
	metrics  *obs.Registry
	m        serverMetrics

	// execute runs one resolved computation; tests substitute it to make
	// job duration controllable. Set only before the first Submit.
	execute func(ctx context.Context, g *mndmst.Graph, system string, opts mndmst.Options) (*mndmst.Result, error)

	mu       sync.Mutex
	draining bool
	queue    chan *Job // buffered to QueueDepth; send/close only under mu
	queued   int
	running  int
	nextID   int64
	jobs     map[string]*Job
	history  []string // finished job ids, oldest first

	// dequeues is a bounded ring of recent worker-dequeue times — the
	// observed service-rate sample Retry-After hints derive from.
	dequeues    []time.Time
	dequeueNext int // ring write index once the ring is full

	wg      sync.WaitGroup
	drained chan struct{} // closed once every worker has exited
}

// serverMetrics are the server's obs handles, resolved once in New so
// the job path never touches the registry lock. They are the only job
// counters: Stats reads them back.
type serverMetrics struct {
	queueDepth     *obs.Gauge
	queueHighwater *obs.Gauge
	running        *obs.Gauge
	submitted      *obs.Counter

	// jobs{state} by terminal state and rejects{reason} by admission
	// failure.
	jobsDone, jobsFailed, jobsCanceled *obs.Counter
	rejectQueueFull, rejectDraining    *obs.Counter

	jobSecondsCold *obs.Histogram // cache="cold": the algorithm actually ran
	jobSecondsHot  *obs.Histogram // cache="hot": answered from cache or coalesced

	retried       *obs.Counter   // re-executions after a transient failure
	degraded      *obs.Counter   // jobs answered by the local fallback
	drainCanceled *obs.Counter   // jobs killed by the drain deadline
	jobAttempts   *obs.Histogram // executions per finished job
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	jobs := reg.CounterVec("mndmst_serve_jobs_total",
		"jobs reaching a terminal state, by state", "state")
	rejects := reg.CounterVec("mndmst_serve_admission_rejects_total",
		"submissions rejected by admission control, by reason", "reason")
	jobSeconds := reg.HistogramVec("mndmst_serve_job_seconds",
		"job execution seconds (queue wait excluded), split by result temperature", nil, "cache")
	return serverMetrics{
		queueDepth: reg.Gauge("mndmst_serve_queue_depth",
			"jobs admitted but not yet picked up by a worker"),
		queueHighwater: reg.Gauge("mndmst_serve_queue_depth_highwater",
			"peak queue depth observed since start"),
		running: reg.Gauge("mndmst_serve_running",
			"jobs currently executing"),
		submitted: reg.Counter("mndmst_serve_jobs_submitted_total",
			"jobs admitted past admission control"),
		jobsDone:        jobs.With(string(StateDone)),
		jobsFailed:      jobs.With(string(StateFailed)),
		jobsCanceled:    jobs.With(string(StateCanceled)),
		rejectQueueFull: rejects.With("queue_full"),
		rejectDraining:  rejects.With("draining"),
		jobSecondsCold:  jobSeconds.With("cold"),
		jobSecondsHot:   jobSeconds.With("hot"),
		retried: reg.Counter("mndmst_serve_jobs_retried_total",
			"job re-executions after a transient failure (attempts beyond each job's first)"),
		degraded: reg.Counter("mndmst_serve_jobs_degraded_total",
			"jobs answered by the local single-node fallback after distributed attempts exhausted"),
		drainCanceled: reg.Counter("mndmst_serve_jobs_drain_canceled_total",
			"jobs canceled by an expired drain deadline rather than a client deadline"),
		jobAttempts: reg.Histogram("mndmst_serve_job_attempts",
			"executions started per finished job (1 = no retry)",
			[]float64{1, 2, 3, 4, 6, 8, 16}),
	}
}

// New starts a Server with cfg's worker pool running. The caller must
// eventually call Shutdown to stop it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:      cfg,
		registry: newRegistry(cfg.GraphDir, cfg.GraphCacheBytes, reg),
		results:  newResultCache(cfg.ResultCacheEntries, reg),
		metrics:  reg,
		m:        newServerMetrics(reg),
		execute:  defaultExecute,
		queue:    make(chan *Job, cfg.QueueDepth),
		jobs:     make(map[string]*Job),
		dequeues: make([]time.Time, 0, dequeueRingSize),
		drained:  make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	go func() {
		s.wg.Wait()
		close(s.drained)
	}()
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// defaultExecute runs the requested algorithm in-process.
func defaultExecute(ctx context.Context, g *mndmst.Graph, system string, opts mndmst.Options) (*mndmst.Result, error) {
	switch system {
	case SystemMND:
		return mndmst.FindMSFContext(ctx, g, opts)
	case SystemBSP:
		return mndmst.FindMSFBSPContext(ctx, g, opts)
	case SystemSeq:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return mndmst.FindMSFSequential(g), nil
	}
	return nil, fmt.Errorf("serve: unknown system %q", system)
}

// Submit validates and admits one job. It returns a typed error without
// admitting anything when the request is malformed, the queue is at its
// configured depth (QueueFullError), or the server is draining
// (ErrDraining). An admitted job is guaranteed to reach exactly one
// terminal state.
func (s *Server) Submit(req JobRequest) (*Job, error) {
	system, opts, err := req.resolve()
	if err != nil {
		return nil, err
	}
	if _, err := req.Graph.canonicalKey(s.registry.dir); err != nil {
		return nil, err
	}
	timeout := time.Duration(req.TimeoutMillis) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.m.rejectDraining.Inc()
		return nil, ErrDraining
	}
	if s.queued >= s.cfg.QueueDepth {
		s.m.rejectQueueFull.Inc()
		return nil, &QueueFullError{Depth: s.cfg.QueueDepth}
	}
	s.nextID++
	// The job context stacks a cancel-cause base under the deadline layer:
	// a drain kill cancels the base with ErrDrainCanceled so
	// context.Cause names the server, while the client's own deadline
	// surfaces as the usual DeadlineExceeded.
	base, baseCancel := context.WithCancelCause(context.Background())
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(base, timeout)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	maxAttempts := req.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = s.cfg.MaxAttempts
	}
	job := &Job{
		id:          fmt.Sprintf("j-%06d", s.nextID),
		seq:         s.nextID,
		req:         req,
		system:      system,
		opts:        opts,
		fpr:         opts.Fingerprint(),
		maxAttempts: maxAttempts,
		ctx:         ctx,
		cancel: func() {
			cancel()
			baseCancel(nil)
		},
		drainCancel: func() { baseCancel(ErrDrainCanceled) },
		state:       StateQueued,
		submitted:   time.Now(),
		done:        make(chan struct{}),
	}
	s.jobs[job.id] = job
	s.queued++
	s.m.submitted.Inc()
	s.m.queueDepth.Set(float64(s.queued))
	s.m.queueHighwater.SetMax(float64(s.queued))
	// The send cannot block: queue capacity equals QueueDepth and queued
	// never exceeds it, and close happens only under this same mutex.
	s.queue <- job
	return job, nil
}

// Job looks up a job by id. Finished jobs stay queryable until evicted
// from the bounded history.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// worker executes queued jobs until the queue is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.mu.Lock()
		s.queued--
		s.running++
		s.noteDequeue(time.Now())
		s.m.queueDepth.Set(float64(s.queued))
		s.m.running.Set(float64(s.running))
		s.mu.Unlock()
		s.runJob(job)
		s.mu.Lock()
		s.running--
		s.m.running.Set(float64(s.running))
		s.mu.Unlock()
		s.retire(job)
	}
}

// runJob drives one admitted job to its terminal state, re-admitting
// attempts whose error classifies retry.Transient under the job's backoff
// policy. Every attempt shares the job's original context, so the retry
// engagement can never outlive the client's deadline; a draining server
// finishes the in-flight attempt but re-admits nothing.
func (s *Server) runJob(job *Job) {
	defer job.cancel()
	if err := job.ctx.Err(); err != nil {
		s.finishCanceled(job, fmt.Errorf("serve: job %s canceled while queued: %w", job.id, err))
		return
	}
	job.setRunning()
	g, digest, err := s.registry.resolve(job.req.Graph)
	if err != nil {
		s.finishJob(job, StateFailed, nil, false, false, err)
		return
	}
	key := digest + "|" + job.system + "|" + job.fpr
	pol := retry.Policy{
		MaxAttempts: job.maxAttempts,
		BaseDelay:   s.cfg.RetryBaseDelay,
		MaxDelay:    s.cfg.RetryMaxDelay,
		Multiplier:  2,
		Jitter:      0.5,
		Seed:        s.cfg.RetrySeed + job.seq,
	}
	var ent *cacheEntry
	var src resultSource
	err = pol.Do(job.ctx, func(ctx context.Context, attempt int) error {
		job.noteAttempt(attempt)
		if attempt > 0 {
			s.m.retried.Inc()
		}
		var derr error
		ent, src, derr = s.results.do(ctx, key, func() (*cacheEntry, error) {
			res, err := s.execute(ctx, g, job.system, job.opts)
			if err != nil {
				return nil, err
			}
			return newCacheEntry(newRecord(g, digest, job.system, job.opts, res), res), nil
		})
		if derr != nil && s.Draining() {
			// Drain rule: the current attempt ran to completion, but a
			// draining server never re-admits — make the failure final.
			return retry.Permanent(derr)
		}
		return derr
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.finishCanceled(job, err)
			return
		}
		// Exhausted transient budget on a distributed infrastructure
		// failure: degrade to the local path rather than surface a fault
		// the client cannot act on. Never while draining — the fallback
		// is a fresh execution the drain already refused.
		if retry.Transient(err) && degradableError(err) && !s.Draining() {
			if s.degrade(job, g, digest) {
				return
			}
		}
		s.finishJob(job, StateFailed, nil, false, false, err)
		return
	}
	if src == srcComputed && len(ent.traceRecs) > 0 {
		// Only cold computes update the last-run gauges: a cache hit
		// replays a stored answer, it is not a new run.
		trace.PublishRecords(s.metrics, ent.traceRecs)
	}
	s.finishJob(job, StateDone, ent, src == srcHit, src == srcCoalesced, nil)
}

// finishCanceled finishes a canceled job, distinguishing a drain kill
// (the server's choice, recorded as such in the error and stats) from the
// client's own deadline or cancel.
func (s *Server) finishCanceled(job *Job, err error) {
	if errors.Is(context.Cause(job.ctx), ErrDrainCanceled) {
		err = fmt.Errorf("%w: %w", ErrDrainCanceled, err)
		s.m.drainCanceled.Inc()
	}
	s.finishJob(job, StateCanceled, nil, false, false, err)
}

// degradableError reports whether the exhausted failure is a distributed
// infrastructure loss — a rank gone or a run aborted by one — for which a
// local single-node execution is a meaningful fallback. Anything else
// (validation, graph loading, a failing sequential run) stays an error.
func degradableError(err error) bool {
	var rle *cluster.RankLostError
	var ae *cluster.AbortError
	return errors.As(err, &rle) || errors.As(err, &ae)
}

// degrade answers the job with the local single-node path after its
// distributed attempts exhausted on rank loss. The fallback strips the
// Transport/Cluster/Chaos plumbing — none of which is fingerprint-
// relevant, so the answer is the one a healthy cluster would have
// computed — and is deliberately NOT cached: the cache must only ever
// serve full-fidelity results, and the record is marked Degraded so
// clients see exactly what they got. Reports whether it answered.
func (s *Server) degrade(job *Job, g *mndmst.Graph, digest string) bool {
	opts := job.opts
	opts.Transport = mndmst.TransportInProcess
	opts.Cluster = nil
	opts.Chaos = nil
	res, err := s.execute(job.ctx, g, job.system, opts)
	if err != nil {
		return false // the distributed error stands; this was best-effort
	}
	job.noteAttempt(job.Attempts()) // the fallback ran one more execution
	rec := newRecord(g, digest, job.system, job.opts, res)
	rec.Degraded = true
	job.mu.Lock()
	job.degraded = true
	job.mu.Unlock()
	s.m.degraded.Inc()
	s.finishJob(job, StateDone, newCacheEntry(rec, res), false, false, nil)
	return true
}

// finishJob records the terminal state in both the job and the counters.
func (s *Server) finishJob(job *Job, state JobState, result *cacheEntry, hit, coalesced bool, err error) {
	ran, started := job.finish(state, result, hit, coalesced, err)
	switch state {
	case StateDone:
		s.m.jobsDone.Inc()
	case StateFailed:
		s.m.jobsFailed.Inc()
	case StateCanceled:
		s.m.jobsCanceled.Inc()
	}
	if attempts := job.Attempts(); attempts > 0 {
		s.m.jobAttempts.Observe(float64(attempts))
	}
	if started {
		h := s.m.jobSecondsCold
		if hit || coalesced {
			h = s.m.jobSecondsHot
		}
		h.Observe(ran.Seconds())
	}
	// Wake waiters only now, so a caller woken by Done reads stats and
	// metrics that already count this job.
	close(job.done)
}

// retire keeps the finished-job history bounded.
func (s *Server) retire(job *Job) {
	s.mu.Lock()
	s.history = append(s.history, job.id)
	for len(s.history) > s.cfg.JobHistory {
		delete(s.jobs, s.history[0])
		s.history = s.history[1:]
	}
	s.mu.Unlock()
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: admission stops immediately (subsequent
// Submits fail with ErrDraining), queued and in-flight jobs run to
// completion, and the worker pool exits. If ctx expires first, every
// unfinished job's context is canceled — the jobs then reach the canceled
// state rather than being lost — and Shutdown still waits for the workers
// before returning ctx's error. Safe to call multiple times; the server
// cannot be restarted afterwards.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			// Cancel with the drain cause, not the plain cancel: the
			// terminal state must record that the server killed the job.
			j.drainCancel()
		}
		s.mu.Unlock()
		<-s.drained
		return ctx.Err()
	}
}

// Metrics returns the server's registry — cfg.Metrics when one was
// provided, otherwise the private registry New created. Handler serves
// it at GET /metrics.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// dequeueRingSize bounds the service-rate sample Retry-After hints use.
const dequeueRingSize = 32

// retryAfterCap bounds the hint so a stalled server never tells clients
// to go away for hours.
const retryAfterCap = 300

// noteDequeue records one worker pickup in the bounded ring. Caller
// holds s.mu.
func (s *Server) noteDequeue(t time.Time) {
	if len(s.dequeues) < dequeueRingSize {
		s.dequeues = append(s.dequeues, t)
		return
	}
	s.dequeues[s.dequeueNext] = t
	s.dequeueNext = (s.dequeueNext + 1) % dequeueRingSize
}

// retryAfterSeconds derives the 429 Retry-After hint from the observed
// dequeue rate and the current backlog: with n recent pickups spanning
// span seconds, the queue drains at (n-1)/span jobs per second, so a
// backlog of q jobs should clear in about q*span/(n-1) seconds. Floor 1
// (the old hardcoded value, kept for near-empty queues and cold starts
// with no rate sample yet), capped at retryAfterCap.
func (s *Server) retryAfterSeconds() int {
	s.mu.Lock()
	queued := s.queued
	n := len(s.dequeues)
	var oldest, newest time.Time
	if n >= 2 {
		oldest, newest = s.dequeues[0], s.dequeues[0]
		for _, t := range s.dequeues[1:] {
			if t.Before(oldest) {
				oldest = t
			}
			if t.After(newest) {
				newest = t
			}
		}
	}
	s.mu.Unlock()

	if queued <= 0 || n < 2 {
		return 1
	}
	span := newest.Sub(oldest).Seconds()
	if span <= 0 {
		return 1
	}
	rate := float64(n-1) / span // jobs per second
	secs := int(math.Ceil(float64(queued) / rate))
	if secs < 1 {
		return 1
	}
	if secs > retryAfterCap {
		return retryAfterCap
	}
	return secs
}

// Stats is the observable state of the server, served at /v1/stats.
type Stats struct {
	Draining bool `json:"draining"`
	Workers  int  `json:"workers"`
	QueueCap int  `json:"queue_cap"`
	Queued   int  `json:"queued"`
	Running  int  `json:"running"`

	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCanceled  int64 `json:"jobs_canceled"`
	JobsRejected  int64 `json:"jobs_rejected"`

	// JobsRetried counts re-executions after transient failures (attempts
	// beyond each job's first); JobsDegraded jobs answered by the local
	// single-node fallback; JobsDrainCanceled jobs killed by an expired
	// drain deadline rather than a client deadline.
	JobsRetried       int64 `json:"jobs_retried"`
	JobsDegraded      int64 `json:"jobs_degraded"`
	JobsDrainCanceled int64 `json:"jobs_drain_canceled"`

	// Computations counts executions that actually ran the algorithm —
	// result-cache misses. ResultCacheHits are answered from memory;
	// ResultCacheCoalesced waited on an identical in-flight computation.
	Computations         int64 `json:"computations"`
	ResultCacheHits      int64 `json:"result_cache_hits"`
	ResultCacheCoalesced int64 `json:"result_cache_coalesced"`
	ResultCacheEntries   int   `json:"result_cache_entries"`

	GraphCacheHits      int64 `json:"graph_cache_hits"`
	GraphCacheLoads     int64 `json:"graph_cache_loads"`
	GraphCacheEvictions int64 `json:"graph_cache_evictions"`
	GraphsCached        int   `json:"graphs_cached"`
	GraphCacheBytes     int64 `json:"graph_cache_bytes"`
	GraphCacheCapBytes  int64 `json:"graph_cache_cap_bytes"`
}

// Stats snapshots the server's state and reads its counters back from the
// obs registry, so /v1/stats and /metrics report the same numbers.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Draining: s.draining,
		Workers:  s.cfg.Workers,
		QueueCap: s.cfg.QueueDepth,
		Queued:   s.queued,
		Running:  s.running,
	}
	s.mu.Unlock()
	// Terminal counts are read before submissions: a job bumps them in the
	// opposite order, so a snapshot never shows more finished than admitted.
	m := &s.m
	st.JobsCompleted = m.jobsDone.Value()
	st.JobsFailed = m.jobsFailed.Value()
	st.JobsCanceled = m.jobsCanceled.Value()
	st.JobsSubmitted = m.submitted.Value()
	st.JobsRejected = m.rejectQueueFull.Value() + m.rejectDraining.Value()
	st.JobsRetried = m.retried.Value()
	st.JobsDegraded = m.degraded.Value()
	st.JobsDrainCanceled = m.drainCanceled.Value()
	s.results.fill(&st)
	s.registry.fill(&st)
	return st
}
