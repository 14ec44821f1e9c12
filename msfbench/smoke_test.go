package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks that each metric BENCHMARK.json names is emitted, with its unit,
// and that nothing failed.
func TestSmoke(t *testing.T) {
	var bm benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bm)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bm.Workloads), len(workloads))
	}
	for _, w := range bm.Workloads {
		for _, traced := range []bool{false, true} {
			want := bm.EndToEnd
			name := w.Name + "/trace0"
			if traced {
				want, name = bm.PerLayer, w.Name+"/trace1"
			}
			t.Run(name, func(t *testing.T) {
				res, rec, err := run(config{
					workload: w.Name, seed: 7, seconds: 200 * time.Millisecond,
					trace: traced, scale: 0.02, workdir: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || rec.FailedShare.Value != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, rec.Failures)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(rec.Graphs) == 0 || rec.Graphs[0].N == 0 || rec.Graphs[0].M == 0 {
					t.Errorf("record lacks the generated graph sizes: %+v", rec.Graphs)
				}
				if rec.Env == nil || rec.Env.GoVersion == "" || rec.Nproc < 1 {
					t.Errorf("record lacks the environment: %+v", rec.Env)
				}
				if traced && rec.SpansFile == "" {
					t.Error("traced run wrote no spans")
				}
			})
		}
	}
}

// TestInteractionMap checks that metrics.json maps exactly the per-layer
// metrics of BENCHMARK.json and records the default seed.
func TestInteractionMap(t *testing.T) {
	var bm benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bm)
	var im struct {
		DefaultSeed int64                      `json:"default_seed"`
		PerLayer    map[string]json.RawMessage `json:"per_layer"`
	}
	readJSON(t, "metrics.json", &im)
	if im.DefaultSeed != defaultSeed {
		t.Errorf("metrics.json default_seed %d, the benchmark's is %d", im.DefaultSeed, defaultSeed)
	}
	var mapped, named []string
	for k := range im.PerLayer {
		mapped = append(mapped, k)
	}
	for _, m := range bm.PerLayer {
		named = append(named, m.Name)
	}
	sort.Strings(mapped)
	sort.Strings(named)
	if len(mapped) != len(named) {
		t.Fatalf("metrics.json maps %v\nBENCHMARK.json names %v", mapped, named)
	}
	for i := range named {
		if mapped[i] != named[i] {
			t.Fatalf("metrics.json maps %v\nBENCHMARK.json names %v", mapped, named)
		}
	}
}

// TestSelfTime checks that a span's self time excludes the union of its
// children, so overlapping (parallel) children count once.
func TestSelfTime(t *testing.T) {
	r := &recorder{spans: []Span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "child", Start: 1, End: 5},
		{ID: 3, Parent: 1, Name: "child", Start: 3, End: 6},
		{ID: 4, Parent: 1, Name: "child", Start: 8, End: 9},
	}}
	self := r.selfTimes()
	if self["root"] != 10-6 || self["child"] != 4+3+1 {
		t.Errorf("self times %v, want root 4 and child 8", self)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 250)
	for i := range xs {
		xs[i] = float64(i)
	}
	if p, v := tail(xs); p != 96 || v != 239.04 {
		t.Errorf("250 samples: tail p%v = %v, want p96 = 239.04", p, v)
	}
	if p, v := tail(xs[:15]); p != 100 || v != 14 {
		t.Errorf("15 samples: tail p%v = %v, want the largest sample, p100 = 14", p, v)
	}
}
