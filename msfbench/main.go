// Command msfbench is the repository's end-to-end benchmark. One process
// runs one named workload through the public mndmst and serve APIs,
// checks every forest against the sequential oracle, and prints its
// metrics as one JSON object on the last line of standard output:
//
//	bash msfbench/run.sh --workload web-local --seed 20181 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it makes the separate traced run (traced.go): spans
// around each call into a layer's public functions, written as JSON, and
// the per-layer metrics. BENCHMARK.json at the repository root lists the
// workloads and metrics; metrics.json here says which end-to-end metric
// each per-layer metric should move, and on which workload.
//
// The line before the last is the run's record: environment, generated
// graph sizes, the tail percentile and its sample count, and the failed
// share. Any wrong forest, error or rejected job makes the run exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"mndmst/internal/bench/schema"
)

// defaultSeed is the workload seed used when --seed is not given.
const defaultSeed = 20181

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the --trace 0 metrics, reported on every workload.
var endToEnd = []metricSpec{
	{"solve_s", "s"},
	{"seq_s", "s"},
	{"sim_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_tail", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the --trace 1 metrics, reported on every workload.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"gen.graph_s", "s"},
		{"graph.build_csr_s", "s"},
		{"graph.arcs", "count"},
		{"partition.read_s", "s"},
		{"partition.skew_s", "s"},
		{"partition.cut_edges", "count"},
		{"boruvka.new_local_s", "s"},
		{"boruvka.kernel_s", "s"},
		{"boruvka.rounds", "count"},
		{"boruvka.edges_scanned", "count"},
		{"hypar.indcomp_s", "s"},
		{"hypar.indcomp_skew_s", "s"},
		{"merge.exchange_deltas_s", "s"},
		{"merge.reduce_s", "s"},
		{"merge.skew_s", "s"},
		{"merge.deltas_sent", "count"},
		{"cluster.bytes_sent", "bytes"},
		{"cluster.msgs", "count"},
	}
	for _, ph := range simPhases {
		specs = append(specs,
			metricSpec{"cluster." + ph + ".sim_compute_s", "s"},
			metricSpec{"cluster." + ph + ".sim_comm_s", "s"})
	}
	return append(specs,
		metricSpec{"core.iterations", "count"},
		metricSpec{"core.levels", "count"},
		metricSpec{"core.peak_edges", "count"},
		metricSpec{"core.unattributed_s", "s"},
		metricSpec{"core.cost_ratio", "ratio"},
		metricSpec{"core.sim_s_distinct", "count"},
		metricSpec{"mst.filterkruskal_s", "s"},
		metricSpec{"mst.verify_s", "s"},
		metricSpec{"serve.queue_wait_ms_p50", "ms"},
		metricSpec{"serve.run_ms_p50", "ms"},
		metricSpec{"serve.hit_ms_p50", "ms"},
		metricSpec{"serve.result_cache_hit_share", "share"},
		metricSpec{"serve.graph_cache_hit_share", "share"},
		metricSpec{"serve.computations", "count"},
		metricSpec{"trace.overhead_s", "s"},
	)
}()

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration // measured duration of the main loop
	trace    bool
	// scale shrinks every generated graph (1 = the benchmark's sizes);
	// the smoke test runs at a tiny scale.
	scale float64
	// workdir holds the files a run writes: serve's graph files and the
	// span JSON of a traced run.
	workdir string
}

// tally counts checked operations and failures; safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failures  []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// check counts one operation, failed when err is non-nil.
func (t *tally) check(err error) {
	if err != nil {
		t.fail("%v", err)
		return
	}
	t.ok()
}

// graphInfo describes one generated input graph in the record.
type graphInfo struct {
	Name   string `json:"name"`
	Shape  string `json:"shape"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	Digest string `json:"digest"`
}

// record is the run's detail line, printed before the result line.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Env      *schema.Env    `json:"env"`
	Nproc    int            `json:"nproc"` // CPUs usable by this process, as nproc counts them
	Graphs   []graphInfo    `json:"graphs"`
	Samples  map[string]int `json:"samples"`
	// TailPct is job_ms_tail's percentile, 100 (the largest sample) on
	// web-*; TailN is the count of samples it is taken from.
	TailPct     float64            `json:"job_ms_tail_percentile"`
	TailN       int                `json:"job_ms_tail_samples"`
	FailedShare metricValue        `json:"failed_share"`
	Failures    []string           `json:"failures,omitempty"`
	SpansFile   string             `json:"spans_file,omitempty"`
	SelfS       map[string]float64 `json:"self_s,omitempty"`
	// HostRefS times hostReference at the start and the end of the run.
	HostRefS []float64 `json:"host_ref_s"`
	Notes    []string  `json:"notes,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(cfg config, tl *tally, rec *record) (map[string]float64, error){
	"web-local": runWebLocal,
	"web-cut":   runWebCut,
	"serve-mix": runServeMix,
}

// run executes one workload and assembles its record and metrics.
func run(cfg config) (*result, *record, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, names)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	tl := &tally{}
	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Env: schema.CaptureEnv(), Nproc: runtime.NumCPU(), Samples: map[string]int{},
	}
	rec.HostRefS = append(rec.HostRefS, hostReference())
	values, err := fn(cfg, tl, rec)
	rec.HostRefS = append(rec.HostRefS, hostReference())
	if err != nil {
		tl.fail("%v", err)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res := &result{Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok && err == nil {
			tl.fail("metric %s was not measured", s.name)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	res.Attempted, res.Failed = tl.attempted, len(tl.failures)
	res.Correct = res.Failed == 0
	rec.Failures = tl.failures
	rec.FailedShare = metricValue{Value: float64(res.Failed) / float64(max(res.Attempted, 1)), Unit: "share"}
	return res, rec, nil
}

// hostReference times a fixed single-thread task, sorting 2^21 seeded
// integers, in seconds. The host the benchmark runs on may be shared, so
// the record carries this to tell a slower host from a slower program.
func hostReference() float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]int, 1<<21)
	for i := range xs {
		xs[i] = rng.Int()
	}
	t0 := time.Now()
	sort.Ints(xs)
	return time.Since(t0).Seconds()
}

// peakRSSMB reports the process's peak resident set size in MiB
// (getrusage's ru_maxrss is in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func main() {
	workload := flag.String("workload", "", "workload name: web-local, web-cut or serve-mix")
	seed := flag.Int64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "how long the main loop measures, in seconds")
	traceFlag := flag.Int("trace", 0, "1 makes the traced run and reports the per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "msfbench"), "directory for the files a run writes")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "msfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, rec, err := run(config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, scale: 1, workdir: *workdir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "msfbench:", err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "msfbench:", err)
		os.Exit(2)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "msfbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		for _, f := range rec.Failures {
			fmt.Fprintln(os.Stderr, "msfbench: FAILED:", f)
		}
		os.Exit(1)
	}
}
