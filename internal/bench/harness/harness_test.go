package harness

import (
	"bytes"
	"regexp"
	"testing"

	"mndmst/internal/bench/schema"
)

// cheapFilter restricts tests to the two comm scenarios: deterministic,
// no graph generation, fast.
var cheapFilter = regexp.MustCompile(`^comm/`)

func TestSimModeIsDeterministic(t *testing.T) {
	cfg := Config{Mode: schema.ModeSim, Scale: 0.02, Filter: cheapFilter}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := schema.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := schema.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatalf("two sim runs encode differently:\n%s\nvs\n%s", ba, bb)
	}
	if a.Env != nil {
		t.Error("sim record carries an env fingerprint; its bytes must be machine-portable")
	}
	if a.Mode != schema.ModeSim || a.Suite != Suite || a.Scale != 0.02 {
		t.Errorf("header = (%q, %q, %g)", a.Mode, a.Suite, a.Scale)
	}
}

func TestWallModeRecordsTiming(t *testing.T) {
	f, err := Run(Config{Mode: schema.ModeWall, Scale: 0.02, Filter: cheapFilter, Reps: 2, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.Env == nil || f.Env.GoVersion == "" || f.Env.GOMAXPROCS <= 0 {
		t.Fatalf("wall record lacks an env fingerprint: %+v", f.Env)
	}
	for _, sc := range f.Scenarios {
		w, ok := sc.Metrics["wall_seconds"]
		if !ok || w <= 0 {
			t.Errorf("%s: wall_seconds = %g, want > 0", sc.Name, w)
		}
		if sim, ok := sc.Metrics["sim_seconds"]; !ok || sim <= 0 {
			t.Errorf("%s: wall mode must keep the deterministic metrics (sim_seconds = %g)", sc.Name, sim)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Mode: "cycles"}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := Run(Config{Filter: regexp.MustCompile(`^no-such/`)}); err == nil {
		t.Error("empty scenario selection accepted")
	}
}

// TestWithDefaultsClampsWarmup: wall mode always runs at least one
// warmup, and an explicit count is kept.
func TestWithDefaultsClampsWarmup(t *testing.T) {
	for in, want := range map[int]int{-3: 1, 0: 1, 1: 1, 4: 4} {
		c, err := Config{Warmup: in}.withDefaults()
		if err != nil || c.Warmup != want {
			t.Fatalf("Warmup %d: got %d (err %v), want %d", in, c.Warmup, err, want)
		}
	}
}

func TestNamesAreUniqueAndStable(t *testing.T) {
	names := Names()
	if len(names) < 20 {
		t.Fatalf("suite has %d scenarios, expected the full pinned set", len(names))
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate scenario name %q", n)
		}
		seen[n] = true
	}
	// Anchor a few names: renaming breaks every baseline, so it should
	// also break this test.
	for _, want := range []string{
		"core/road_usa/p4", "core/uk-2007/p16", "core/arabic-2005/p4/gpu",
		"dist/mem/arabic-2005/p4", "dist/tcp/arabic-2005/p4",
		"comm/deltas/p4/64KiB", "comm/segments/ring/p4",
		"serve/jobs/cold", "serve/jobs/hot", "apps/pagerank/arabic-2005/p8",
	} {
		if !seen[want] {
			t.Errorf("pinned scenario %q missing from the suite", want)
		}
	}
}

// TestFullSuiteRuns executes every pinned scenario once in sim mode —
// core, GPU, both transports, comm, serve, apps — and checks the record
// validates and covers the whole suite. This is the same path the CI
// perf gate takes.
func TestFullSuiteRuns(t *testing.T) {
	f, err := Run(Config{Mode: schema.ModeSim, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Scenarios) != len(Names()) {
		t.Fatalf("record has %d scenarios, suite has %d", len(f.Scenarios), len(Names()))
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, sc := range f.Scenarios {
		if sim, ok := sc.Metrics["sim_seconds"]; ok && sim <= 0 {
			t.Errorf("%s: sim_seconds = %g, want > 0", sc.Name, sim)
		}
	}
}

func TestRobustMin(t *testing.T) {
	tests := []struct {
		name    string
		samples []float64
		want    float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3}, 3},
		{"under four takes plain min", []float64{5, 2, 9}, 2},
		{"clean samples take min", []float64{1.0, 1.1, 1.2, 1.3, 1.4}, 1.0},
		{"low outlier rejected", []float64{0.001, 1.0, 1.01, 1.02, 1.03, 1.04}, 1.0},
		{"high outlier ignored anyway", []float64{1.0, 1.01, 1.02, 1.03, 50}, 1.0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := robustMin(tc.samples); got != tc.want {
				t.Fatalf("robustMin(%v) = %g, want %g", tc.samples, got, tc.want)
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if q := quantile(s, 0); q != 1 {
		t.Errorf("q0 = %g", q)
	}
	if q := quantile(s, 1); q != 4 {
		t.Errorf("q1 = %g", q)
	}
	if q := quantile(s, 0.5); q != 2.5 {
		t.Errorf("q0.5 = %g, want 2.5", q)
	}
}
