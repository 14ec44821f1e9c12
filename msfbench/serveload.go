package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mndmst"
	"mndmst/internal/serve"
)

// serveShapes are serve-mix's registry-resident graphs: a web, a road
// and a low-locality shape, each sized so one computed job alone takes
// about 60–200 ms on an idle 2-vCPU host.
var serveShapes = []shape{
	{"uk-2007", 8_000},
	{"road_usa", 150_000},
	{"gsh-2015-tpd", 3_000},
}

const (
	// serveClients is the closed loop's client count (one per core of
	// the reference host).
	serveClients = 2
	// serveSetupReps is how often a serve-mix run sets up.
	serveSetupReps = 3
	// repeatEvery makes every fourth request repeat an earlier one.
	repeatEvery = 4
	// simRequests is how many of the first distinct requests serve-mix's
	// sim_s takes its median over: the same requests in every run of a
	// seed however fast the host is, so sim_s repeats exactly.
	simRequests = 72
)

// servedGraph is one graph a server holds, with its oracle.
type servedGraph struct {
	path string // relative to the server's graph directory
	g    *mndmst.Graph
	want *mndmst.Result
}

// job is one request and the graph whose oracle its answer must match.
type job struct {
	req   serve.JobRequest
	graph *servedGraph
	fresh int // index in the list of distinct requests
}

// serveSamples are the client-side and server-side measurements of a
// serve load.
type serveSamples struct {
	latency    []float64 // Submit to Done, every completed job
	hitLatency []float64 // Submit to Done, result-cache hits and coalesced jobs
	queue      []float64 // Status().QueueSeconds, every completed job
	run        []float64 // Status().RunSeconds, computed jobs
	sims       []float64 // SimSeconds, computed jobs among the first simRequests
	elapsed    float64
	stats      serve.Stats
}

// drive runs a closed loop of clients goroutines against srv: each
// submits next's job, waits on Done, checks the answer, and repeats until
// next has no more or the deadline (if non-zero) has passed.
func drive(srv *serve.Server, clients int, deadline time.Time, next func() (job, bool), tl *tally, tr *recorder) *serveSamples {
	var mu sync.Mutex
	var seq int
	sm := &serveSamples{}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for deadline.IsZero() || time.Now().Before(deadline) {
				jb, ok := next()
				if !ok {
					return
				}
				mu.Lock()
				seq++
				run := fmt.Sprintf("job-%d", seq)
				mu.Unlock()
				sp := tr.start(run, 0, "serve.Job")
				t0 := time.Now()
				j, err := srv.Submit(jb.req)
				if err != nil {
					tr.end(sp)
					tl.fail("serve: submit rejected: %v", err)
					continue
				}
				<-j.Done()
				lat := time.Since(t0).Seconds()
				tr.end(sp)
				st := j.Status()
				if err := checkJob(st, jb.graph); err != nil {
					tl.fail("serve: job %s: %v", st.ID, err)
					continue
				}
				tl.ok()
				mu.Lock()
				sm.latency = append(sm.latency, lat)
				sm.queue = append(sm.queue, st.QueueSeconds)
				if st.CacheHit || st.Coalesced {
					sm.hitLatency = append(sm.hitLatency, lat)
				} else {
					sm.run = append(sm.run, st.RunSeconds)
					if jb.fresh < simRequests {
						sm.sims = append(sm.sims, st.Result.SimSeconds)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sm.elapsed = time.Since(start).Seconds()
	sm.stats = srv.Stats()
	return sm
}

// checkJob compares a finished job's answer with its graph's oracle.
func checkJob(st serve.JobStatus, sg *servedGraph) error {
	if st.State != string(serve.StateDone) || st.Result == nil {
		return fmt.Errorf("state %s: %s", st.State, st.Error)
	}
	r := st.Result
	if r.GraphDigest != sg.g.Digest() {
		return fmt.Errorf("graph digest %s, want %s", r.GraphDigest, sg.g.Digest())
	}
	if r.TotalWeight != sg.want.TotalWeight || r.ForestEdges != len(sg.want.EdgeIDs) {
		return fmt.Errorf("total_weight %d forest_edges %d, oracle %d and %d",
			r.TotalWeight, r.ForestEdges, sg.want.TotalWeight, len(sg.want.EdgeIDs))
	}
	return nil
}

func shutdown(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return srv.Shutdown(ctx)
}

// serveMetrics are the serve layer's per-layer metrics from one load.
func (sm *serveSamples) serveMetrics() map[string]float64 {
	st := sm.stats
	avoided := float64(st.ResultCacheHits + st.ResultCacheCoalesced)
	return map[string]float64{
		"serve.queue_wait_ms_p50":      median(sm.queue) * 1000,
		"serve.run_ms_p50":             median(sm.run) * 1000,
		"serve.hit_ms_p50":             median(sm.hitLatency) * 1000,
		"serve.result_cache_hit_share": avoided / max(avoided+float64(st.Computations), 1),
		"serve.graph_cache_hit_share":  float64(st.GraphCacheHits) / float64(max(st.GraphCacheHits+st.GraphCacheLoads, 1)),
		"serve.computations":           float64(st.Computations),
	}
}

// freshRequests enumerates every distinct request serve-mix can make on
// its graphs. The options vary Nodes ∈ {4, 8, 16}, the group size (2–8),
// the exception condition, diminishing-benefit termination and
// contraction: 56 option sets per (graph, Nodes) cell. The order is fixed
// so that every run makes the same mix of work whatever the seed: the
// cells take turns, and within a cell the three on/off options cycle
// fastest while the group size rotates.
func freshRequests(graphs []*servedGraph) []job {
	const perCell = 8 * 7
	var out []job
	for i := 0; i < perCell; i++ {
		c := 0
		for _, nodes := range []int{4, 8, 16} {
			for _, sg := range graphs {
				excpt := "border-vertex"
				if i&1 != 0 {
					excpt = "border-edge"
				}
				out = append(out, job{graph: sg, fresh: len(out), req: serve.JobRequest{
					Graph:  serve.GraphSpec{Path: sg.path},
					System: serve.SystemMND,
					Options: serve.OptionSpec{
						Nodes: nodes, GroupSize: 2 + (i/8+c)%7, Exception: excpt,
						DiminishingTermination: i&2 != 0, Contraction: i&4 != 0,
					},
				}})
				c++
			}
		}
	}
	return out
}

// stream is serve-mix's request sequence: every repeatEvery-th request
// repeats a seeded choice of an earlier one, the others take the next
// fresh request. It depends only on the seed, whichever client takes a
// request.
type stream struct {
	mu     sync.Mutex
	rng    *rand.Rand
	fresh  []job
	next   int
	issued []job
}

func newStream(seed int64, graphs []*servedGraph) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed)), fresh: freshRequests(graphs)}
}

func (s *stream) take() (job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var jb job
	if len(s.issued)%repeatEvery == repeatEvery-1 {
		jb = s.issued[s.rng.Intn(len(s.issued))]
	} else {
		// Past the fresh requests the stream wraps around; a run that
		// gets there is recorded in the notes.
		jb = s.fresh[s.next%len(s.fresh)]
		s.next++
	}
	s.issued = append(s.issued, jb)
	return jb, true
}

// mixServer is a started serve-mix server and what it was started on.
type mixServer struct {
	srv    *serve.Server
	dir    string // graph directory, removed by close
	graphs []*servedGraph
	warm   []*serve.Job // registry warm-up jobs, checked once the oracles exist
	genS   float64      // generator seconds
}

func (m *mixServer) close() error {
	defer os.RemoveAll(m.dir)
	return shutdown(m.srv)
}

// startMix generates serve-mix's graphs, writes them to a fresh graph
// directory, starts a server with default workers on it, and warms its
// registry with one sequential job per graph.
func startMix(cfg config, tr *recorder, run string) (*mixServer, error) {
	root := tr.start(run, 0, "setup")
	defer tr.end(root)
	dir, err := os.MkdirTemp(cfg.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	m := &mixServer{dir: dir}
	for i, sh := range serveShapes {
		sp := tr.start(run, root, "gen.graph")
		g, err := sh.generate(cfg.seed+int64(i), cfg.scale)
		m.genS += tr.end(sp)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		sg := &servedGraph{path: fmt.Sprintf("%s-%d.mnd", sh.profile, i), g: g}
		if err := mndmst.SaveGraph(filepath.Join(dir, sg.path), g); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		m.graphs = append(m.graphs, sg)
	}
	m.srv = serve.New(serve.Config{GraphDir: dir})
	for _, sg := range m.graphs {
		sp := tr.start(run, root, "serve.warm")
		j, err := m.srv.Submit(serve.JobRequest{Graph: serve.GraphSpec{Path: sg.path}, System: serve.SystemSeq})
		if err != nil {
			tr.end(sp)
			m.close()
			return nil, fmt.Errorf("serve: warm-up rejected: %w", err)
		}
		<-j.Done()
		tr.end(sp)
		m.warm = append(m.warm, j)
	}
	return m, nil
}

// runServeMix drives an in-process server with serveClients clients in a
// closed loop over a seeded request stream.
func runServeMix(cfg config, tl *tally, rec *record) (map[string]float64, error) {
	tr := cfg.recorder()
	var m *mixServer
	var setups, gens []float64
	for i := 0; i < serveSetupReps; i++ {
		if m != nil {
			if err := m.close(); err != nil {
				return nil, err
			}
			m = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if m, err = startMix(cfg, tr, fmt.Sprintf("setup-%d", i)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, m.genS)
	}
	var seqS float64
	for i, sg := range m.graphs {
		want, secs := oracle(tr, tl, sg.g, seqReps)
		sg.want = want
		seqS += median(secs)
		tl.check(mndmst.Verify(sg.g, want))
		tl.check(checkJob(m.warm[i].Status(), sg))
		rec.Graphs = append(rec.Graphs, describe(fmt.Sprintf("serve-%d", i), serveShapes[i], sg.g))
	}

	st := newStream(cfg.seed, m.graphs)
	sm := drive(m.srv, serveClients, time.Now().Add(cfg.seconds), st.take, tl, tr)
	if err := m.close(); err != nil {
		return nil, fmt.Errorf("serve: shutdown: %w", err)
	}
	if st.next > len(st.fresh) {
		rec.Notes = append(rec.Notes, fmt.Sprintf("request stream wrapped: %d fresh requests taken of %d", st.next, len(st.fresh)))
	}
	rec.Samples["jobs"] = len(sm.latency)
	rec.Samples["computed_jobs"] = len(sm.run)
	rec.Samples["hit_jobs"] = len(sm.hitLatency)
	rec.Samples["setups"] = len(setups)

	if cfg.trace {
		// The layer replay and the tracing overhead use the web graph.
		sl := solveLoop(tr, tl, m.graphs[0].g, 0, 2*minSolves)
		return tracedMetrics(cfg, tr, tl, rec, m.graphs[0].g, sl, gens, sm.serveMetrics())
	}
	pct, tailV := tail(sm.latency)
	rec.TailPct, rec.TailN = pct, len(sm.latency)
	return map[string]float64{
		"solve_s":     median(sm.run),
		"seq_s":       seqS,
		"sim_s":       median(sm.sims),
		"jobs_per_s":  float64(len(sm.latency)) / sm.elapsed,
		"job_ms_p50":  median(sm.latency) * 1000,
		"job_ms_tail": tailV * 1000,
		"setup_s":     median(setups),
		"peak_rss_mb": peakRSSMB(),
	}, nil
}

// servePass is the web-* traced run's serve layer: one client sends two
// computed jobs on the workload graph, then repeats both, so the serve
// metrics exist on every workload.
func servePass(cfg config, tr *recorder, tl *tally, g *mndmst.Graph, want *mndmst.Result) (map[string]float64, error) {
	dir, err := os.MkdirTemp(cfg.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sg := &servedGraph{path: "graph.mnd", g: g, want: want}
	if err := mndmst.SaveGraph(filepath.Join(dir, sg.path), g); err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{GraphDir: dir})
	var jobs []job
	for _, nodes := range []int{16, 8, 16, 8} {
		jobs = append(jobs, job{graph: sg, req: serve.JobRequest{
			Graph: serve.GraphSpec{Path: sg.path}, System: serve.SystemMND,
			Options: serve.OptionSpec{Nodes: nodes},
		}})
	}
	next := func() (job, bool) {
		if len(jobs) == 0 {
			return job{}, false
		}
		jb := jobs[0]
		jobs = jobs[1:]
		return jb, true
	}
	sm := drive(srv, 1, time.Time{}, next, tl, tr)
	if err := shutdown(srv); err != nil {
		return nil, fmt.Errorf("serve: shutdown: %w", err)
	}
	return sm.serveMetrics(), nil
}
