// Package harness is the deterministic perf-regression harness behind
// cmd/mndmst-bench: a pinned scenario suite — core FindMSF runs across the
// Table 2 workload profiles and rank counts, distributed runs over both
// the in-process Mem transport and real loopback TCP, the merge-phase
// communication patterns, the job service in both cache regimes, and the
// analytics applications — measured in one of two modes and serialized to
// the canonical schema (internal/bench/schema) that the regression gate
// compares against a committed baseline.
//
// Sim mode records the α–β/device-model simulated clocks: bit-stable
// across runs, so baselines diff exactly and ANY change to a hot path's
// simulated cost fails the gate until it is blessed. Wall mode records
// real elapsed time (min-of-N with warmup and IQR outlier rejection) plus
// an environment fingerprint; it tracks the physical trajectory and is
// compared within a tolerance band instead.
//
// Every core-run scenario additionally cross-checks itself against the
// observability layer: the run's report is published to a fresh metrics
// registry and scraped back through the canonical text encoding, and the
// scraped gauges must equal the report's accessors exactly — so the bench,
// the trace, and a live /metrics scrape can never silently disagree.
package harness

import (
	"fmt"
	"regexp"

	"mndmst/internal/bench/schema"
	"mndmst/internal/cluster"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/obs"
	"mndmst/internal/trace"
)

// Suite is the suite name the harness stamps into its records.
const Suite = "core"

// DefaultScale is the workload scale the committed baseline is recorded
// at: small enough that the full sim suite runs in CI seconds, large
// enough that every phase does real work.
const DefaultScale = 0.05

// Config configures one harness invocation.
type Config struct {
	// Mode is schema.ModeSim (default) or schema.ModeWall.
	Mode string
	// Scale is the workload scale (default DefaultScale).
	Scale float64
	// Filter, when non-nil, selects the scenarios to run by name.
	Filter *regexp.Regexp
	// Reps and Warmup govern wall mode: Warmup untimed runs, then Reps
	// timed runs reduced by IQR-filtered minimum (defaults 5 and 1; a
	// Warmup below 1 runs one).
	Reps, Warmup int
	// Logf, when non-nil, receives one progress line per scenario.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() (Config, error) {
	if c.Mode == "" {
		c.Mode = schema.ModeSim
	}
	if c.Mode != schema.ModeSim && c.Mode != schema.ModeWall {
		return c, fmt.Errorf("harness: unknown mode %q", c.Mode)
	}
	if c.Scale <= 0 {
		c.Scale = DefaultScale
	}
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Warmup < 1 {
		c.Warmup = 1
	}
	return c, nil
}

// Scenario is one pinned measurement of the suite.
type Scenario struct {
	// Name is the stable identifier baselines key on.
	Name string
	// run produces the scenario's deterministic metrics at the given
	// scale. Wall mode times this function as a whole.
	run func(r *Runner) (map[string]float64, error)
}

// Runner carries the per-invocation state scenario bodies share: the
// resolved config and a graph cache, so scenarios over the same profile
// generate the workload once.
type Runner struct {
	cfg    Config
	graphs map[string]*graph.EdgeList
}

// Graph returns the named Table 2 profile at the configured scale,
// memoized per invocation.
func (r *Runner) Graph(profile string) (*graph.EdgeList, error) {
	if el, ok := r.graphs[profile]; ok {
		return el, nil
	}
	p, err := gen.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	el := p.Generate(r.cfg.Scale)
	r.graphs[profile] = el
	return el, nil
}

// Scale exposes the configured workload scale to scenario bodies.
func (r *Runner) Scale() float64 { return r.cfg.Scale }

// crossCheckGauges publishes rep into a fresh registry, scrapes it back
// through the canonical text encoding, and verifies the run gauges equal
// the report accessors exactly. This is the harness's obs cross-check: a
// drifting aggregation or a broken encoder fails the bench run itself.
func crossCheckGauges(rep *cluster.Report) error {
	reg := obs.NewRegistry()
	trace.Publish(reg, rep)
	snap, err := reg.Snapshot()
	if err != nil {
		return fmt.Errorf("obs cross-check: scrape: %w", err)
	}
	checks := []struct {
		key  string
		want float64
	}{
		{"mndmst_run_ranks", float64(len(rep.Ranks))},
		{"mndmst_run_sim_seconds", rep.ExecutionTime()},
		{"mndmst_run_bytes_sent", float64(rep.TotalBytes())},
		{"mndmst_run_msgs", float64(rep.TotalMsgs())},
	}
	for _, c := range checks {
		got, ok := snap[c.key]
		if !ok {
			return fmt.Errorf("obs cross-check: gauge %s missing from scrape", c.key)
		}
		if got != c.want {
			return fmt.Errorf("obs cross-check: %s = %g, report says %g", c.key, got, c.want)
		}
	}
	for _, name := range rep.PhaseNames() {
		wantC, _ := rep.PhaseTime(name)
		key := fmt.Sprintf("mndmst_run_phase_compute_seconds{phase=%q}", name)
		got, ok := snap[key]
		if !ok {
			return fmt.Errorf("obs cross-check: %s missing from scrape", key)
		}
		if got != wantC {
			return fmt.Errorf("obs cross-check: %s = %g, report says %g", key, got, wantC)
		}
	}
	return nil
}

// reportMetrics extracts the deterministic simulated-clock metrics every
// cluster run exposes. Wall readings are deliberately excluded: they are
// machine noise in sim mode, and wall mode measures the scenario from
// outside instead.
func reportMetrics(rep *cluster.Report) map[string]float64 {
	return map[string]float64{
		"sim_seconds":     rep.ExecutionTime(),
		"compute_seconds": rep.ComputeTime(),
		"comm_seconds":    rep.CommTime(),
		"bytes_sent":      float64(rep.TotalBytes()),
		"msgs":            float64(rep.TotalMsgs()),
	}
}

// Run executes the configured subset of the suite and returns the record.
func Run(cfg Config) (*schema.File, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r := &Runner{cfg: cfg, graphs: map[string]*graph.EdgeList{}}

	f := &schema.File{
		Schema: schema.Version,
		Mode:   cfg.Mode,
		Suite:  Suite,
		Scale:  cfg.Scale,
	}
	if cfg.Mode == schema.ModeWall {
		f.Env = EnvFingerprint()
	}
	for _, sc := range Scenarios() {
		if cfg.Filter != nil && !cfg.Filter.MatchString(sc.Name) {
			continue
		}
		var metrics map[string]float64
		if cfg.Mode == schema.ModeSim {
			metrics, err = sc.run(r)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
			}
		} else {
			metrics, err = measureWall(r, sc, cfg.Reps, cfg.Warmup)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
			}
		}
		logf("%-44s ok (%d metrics)", sc.Name, len(metrics))
		f.Scenarios = append(f.Scenarios, schema.Scenario{Name: sc.Name, Metrics: metrics})
	}
	if len(f.Scenarios) == 0 {
		return nil, fmt.Errorf("harness: no scenario matched the filter")
	}
	return f, nil
}

// Names lists the full pinned suite in order.
func Names() []string {
	scs := Scenarios()
	out := make([]string, len(scs))
	for i, sc := range scs {
		out[i] = sc.Name
	}
	return out
}
