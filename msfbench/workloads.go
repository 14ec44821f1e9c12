package main

import (
	"cmp"
	"fmt"
	"runtime"
	"time"

	"mndmst"
	"mndmst/internal/gen"
)

// shape is a Table 2 profile's generator shape (kind, edge factor,
// locality) at a chosen vertex count. The benchmark's seed, not the
// profile's, drives the generator.
type shape struct {
	profile string
	n       int32
}

func (s shape) generate(seed int64, scale float64) (*mndmst.Graph, error) {
	p, err := gen.ProfileByName(s.profile)
	if err != nil {
		return nil, err
	}
	n := max(int32(float64(s.n)*scale), 64)
	if p.Kind == gen.KindRoad {
		return mndmst.GenerateRoadNetwork(int(n), seed), nil
	}
	return mndmst.GenerateWebGraph(n, int(float64(n)*p.EdgeFactor), p.Locality, seed), nil
}

var (
	// webLocalShape is uk-2007 at reproduction scale: 3.26M edges,
	// locality 0.88.
	webLocalShape = shape{"uk-2007", 105_000}
	// webCutShape is gsh-2015-tpd at reproduction scale: 570k edges,
	// locality 0.45.
	webCutShape = shape{"gsh-2015-tpd", 30_000}
)

// webOptions is the web-* configuration: 16 ranks of the AMD cluster
// model, CPU only.
var webOptions = mndmst.Options{Nodes: 16, Machine: mndmst.AMDCluster}

const (
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 7
	// seqReps is how often a run times the sequential oracle.
	seqReps = 3
	// minSolves is the fewest FindMSF calls a web-* loop makes.
	minSolves = 3
)

func runWebLocal(cfg config, tl *tally, rec *record) (map[string]float64, error) {
	return runWeb(cfg, webLocalShape, tl, rec)
}

func runWebCut(cfg config, tl *tally, rec *record) (map[string]float64, error) {
	return runWeb(cfg, webCutShape, tl, rec)
}

// runWeb runs one caller in a closed loop of FindMSF calls on a graph
// already in memory.
func runWeb(cfg config, sh shape, tl *tally, rec *record) (map[string]float64, error) {
	tr := cfg.recorder()
	var g *mndmst.Graph
	var setups, gens []float64
	for i := 0; i < setupReps; i++ {
		g = nil
		runtime.GC() // each set-up starts from the same heap
		run := fmt.Sprintf("setup-%d", i)
		t0 := time.Now()
		root := tr.start(run, 0, "setup")
		sp := tr.start(run, root, "gen.graph")
		var err error
		if g, err = sh.generate(cfg.seed, cfg.scale); err != nil {
			return nil, err
		}
		gens = append(gens, tr.end(sp))
		tr.end(root)
		setups = append(setups, time.Since(t0).Seconds())
	}
	rec.Graphs = []graphInfo{describe(cfg.workload, sh, g)}

	sl := solveLoop(tr, tl, g, cfg.seconds, minSolves)
	rec.Samples["solves"] = len(sl.lat)
	rec.Samples["seq"] = len(sl.seqs)
	rec.Samples["setups"] = len(setups)
	if d := distinct(sl.sims); d > 1 {
		rec.Notes = append(rec.Notes, fmt.Sprintf("determinism defect: %d distinct sim_s values", d))
	}

	if cfg.trace {
		serveVals, err := servePass(cfg, tr, tl, g, sl.want)
		if err != nil {
			return nil, err
		}
		return tracedMetrics(cfg, tr, tl, rec, g, sl, gens, serveVals)
	}
	// A web-* run makes 10-25 calls, too few for a percentile above the
	// median with ten samples beyond it, so its tail is always the slowest
	// call: p100, whatever the count.
	rec.TailPct, rec.TailN = 100, len(sl.lat)
	return map[string]float64{
		"solve_s":     median(sl.lat),
		"seq_s":       median(sl.seqs),
		"sim_s":       median(sl.sims),
		"jobs_per_s":  float64(len(sl.lat)) / sl.elapsed,
		"job_ms_p50":  median(sl.lat) * 1000,
		"job_ms_tail": maxOf(sl.lat) * 1000,
		"setup_s":     median(setups),
		"peak_rss_mb": peakRSSMB(),
	}, nil
}

// describe is a graph's entry in the record.
func describe(name string, sh shape, g *mndmst.Graph) graphInfo {
	return graphInfo{Name: name, Shape: sh.profile, N: g.NumVertices(), M: g.NumEdges(), Digest: g.Digest()}
}

// oracle runs FindMSFSequential reps times — the COST baseline, and the
// forest every other result must equal — and returns its forest and
// times.
func oracle(tr *recorder, tl *tally, g *mndmst.Graph, reps int) (*mndmst.Result, []float64) {
	var want *mndmst.Result
	var secs []float64
	for i := 0; i < reps; i++ {
		res, t := sequential(tr, tl, g, want)
		want = cmp.Or(want, res)
		secs = append(secs, t)
	}
	return want, secs
}

// sequential times one FindMSFSequential call. The oracle's own calls must
// agree, so a result differing from want (when given) is a failure.
func sequential(tr *recorder, tl *tally, g *mndmst.Graph, want *mndmst.Result) (*mndmst.Result, float64) {
	sp := tr.start("oracle", 0, "mndmst.FindMSFSequential")
	t0 := time.Now()
	res := mndmst.FindMSFSequential(g)
	secs := time.Since(t0).Seconds()
	tr.end(sp)
	if want != nil {
		if err := sameForest(want, res); err != nil {
			tl.fail("FindMSFSequential differs between calls: %v", err)
		}
	}
	return res, secs
}

// sameForest reports whether got is edge-for-edge the oracle's forest.
func sameForest(want, got *mndmst.Result) error {
	if got.TotalWeight != want.TotalWeight || len(got.EdgeIDs) != len(want.EdgeIDs) {
		return fmt.Errorf("forest mismatch: weight %d vs oracle %d, %d edges vs %d",
			got.TotalWeight, want.TotalWeight, len(got.EdgeIDs), len(want.EdgeIDs))
	}
	for i, id := range want.EdgeIDs {
		if got.EdgeIDs[i] != id {
			return fmt.Errorf("forest mismatch at position %d: edge %d vs oracle %d", i, got.EdgeIDs[i], id)
		}
	}
	return nil
}

// solveSamples are the measurements of a FindMSF loop.
type solveSamples struct {
	want    *mndmst.Result // the oracle's forest
	seqs    []float64      // FindMSFSequential seconds, spread over the loop
	lat     []float64      // untraced FindMSF seconds
	traced  []float64      // traced FindMSF span seconds (traced run only)
	sims    []float64      // SimSeconds of every call
	elapsed float64        // wall seconds of the loop's FindMSF calls
	verifyS float64        // the mndmst.Verify span (traced run only)
}

// solveLoop calls FindMSF on g in a closed loop for d, and at least
// minCalls times untraced, checking each forest against the oracle's. The
// oracle runs seqReps times, at the start and then evenly spread over d,
// so that seq_s samples the same host conditions as solve_s. In the
// traced run every other FindMSF call is traced, so the untraced calls
// give the tracing overhead's baseline under the same conditions. After
// the loop mndmst.Verify checks the first forest, once per run.
func solveLoop(tr *recorder, tl *tally, g *mndmst.Graph, d time.Duration, minCalls int) solveSamples {
	var sl solveSamples
	var first *mndmst.Result
	var seqTotal float64
	seq := func() {
		res, secs := sequential(tr, tl, g, sl.want)
		sl.want = cmp.Or(sl.want, res)
		sl.seqs = append(sl.seqs, secs)
		seqTotal += secs
	}
	start := time.Now()
	for i := 0; len(sl.lat) < minCalls || time.Since(start) < d; i++ {
		for len(sl.seqs) < seqReps && time.Since(start) >= d*time.Duration(len(sl.seqs))/seqReps {
			seq()
		}
		traced := tr != nil && i%2 == 1
		sp := 0
		if traced {
			sp = tr.start(fmt.Sprintf("solve-%d", i), 0, "mndmst.FindMSF")
		}
		t0 := time.Now()
		res, err := mndmst.FindMSF(g, webOptions)
		secs := time.Since(t0).Seconds()
		if traced {
			sl.traced = append(sl.traced, tr.end(sp))
		} else {
			sl.lat = append(sl.lat, secs)
		}
		if err != nil {
			tl.fail("FindMSF: %v", err)
			continue
		}
		tl.check(sameForest(sl.want, res))
		sl.sims = append(sl.sims, res.SimSeconds)
		if first == nil {
			first = res
		}
	}
	sl.elapsed = time.Since(start).Seconds() - seqTotal
	for len(sl.seqs) < seqReps {
		seq()
	}
	if first != nil {
		sp := tr.start("verify", 0, "mndmst.Verify")
		tl.check(mndmst.Verify(g, first))
		sl.verifyS = tr.end(sp)
	}
	return sl
}
