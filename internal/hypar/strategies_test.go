package hypar_test

import (
	"math"
	"math/bits"
	"testing"

	"mndmst/internal/boruvka"
	"mndmst/internal/cluster"
	"mndmst/internal/core"
	"mndmst/internal/cost"
	"mndmst/internal/device"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
	"mndmst/internal/wire"
)

// strategyGraph is the pinned workload of the strategy tests: the
// canonical web profile at a scale where hierarchical merging runs
// multiple iterations and levels.
func strategyGraph(t *testing.T) *graph.EdgeList {
	t.Helper()
	p, err := gen.ProfileByName("arabic-2005")
	if err != nil {
		t.Fatal(err)
	}
	return p.Generate(0.05)
}

// runStrategy executes core.Run with the default config transformed by
// mut, verifies the forest against the Kruskal ground truth (a strategy
// knob must never change the answer, only the trajectory), and returns
// the result.
func runStrategy(t *testing.T, el *graph.EdgeList, ranks int, mut func(*hypar.Config)) *core.Result {
	t.Helper()
	cfg := hypar.DefaultConfig()
	mut(&cfg)
	res, err := core.Run(el, ranks, cost.AMDCluster(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyAgainstOracle(el, res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecursionThresholdStrategy pins the §4.3.3 recursion threshold
// semantics: zero always recurses, a tiny threshold is indistinguishable
// from always (every residual graph clears it), and an unreachable
// threshold skips further independent computations after the first
// iteration — trading indComp compute for a heavier postProcess.
func TestRecursionThresholdStrategy(t *testing.T) {
	el := strategyGraph(t)
	const ranks = 8
	base := runStrategy(t, el, ranks, func(c *hypar.Config) { c.RecursionMinEdges = 0 })
	baseInd, _ := base.Report.PhaseTime(core.PhaseIndComp)
	basePost, _ := base.Report.PhaseTime(core.PhasePostProcess)

	tests := []struct {
		name      string
		minEdges  int
		check     func(t *testing.T, res *core.Result)
		identical bool
	}{
		{
			// Every residual graph has ≥1 edge, so the threshold never
			// bites: the run must be bit-identical to always-recurse.
			name:      "threshold of one edge is always-recurse",
			minEdges:  1,
			identical: true,
		},
		{
			name:     "unreachable threshold skips recursion",
			minEdges: math.MaxInt,
			check: func(t *testing.T, res *core.Result) {
				ind, _ := res.Report.PhaseTime(core.PhaseIndComp)
				post, _ := res.Report.PhaseTime(core.PhasePostProcess)
				if ind >= baseInd {
					t.Errorf("indComp compute %g, want < always-recurse %g", ind, baseInd)
				}
				if post <= basePost {
					t.Errorf("postProcess compute %g, want > always-recurse %g", post, basePost)
				}
				if res.Iterations < base.Iterations {
					t.Errorf("iterations %d, want >= always-recurse %d", res.Iterations, base.Iterations)
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			res := runStrategy(t, el, ranks, func(c *hypar.Config) { c.RecursionMinEdges = tc.minEdges })
			if tc.identical {
				if res.Report.ExecutionTime() != base.Report.ExecutionTime() ||
					res.Iterations != base.Iterations || res.Levels != base.Levels {
					t.Errorf("run differs from always-recurse: exe %g vs %g, iters %d vs %d, levels %d vs %d",
						res.Report.ExecutionTime(), base.Report.ExecutionTime(),
						res.Iterations, base.Iterations, res.Levels, base.Levels)
				}
			}
			if tc.check != nil {
				tc.check(t, res)
			}
		})
	}
}

// TestConvergenceSwitchStrategy pins the §4.3.4 ring→leader switch: the
// more patient the switch (higher ring-round budget, stricter shrink
// requirement before giving up), the more iterations the run spends in
// ring exchanges — eager merging reaches the final rank in the fewest
// iterations but ships more data per merge (higher peak residency).
func TestConvergenceSwitchStrategy(t *testing.T) {
	el := strategyGraph(t)
	const ranks = 16 // four groups of the paper's group size 4

	eager := runStrategy(t, el, ranks, func(c *hypar.Config) { c.MaxRingRounds = 0 })
	def := runStrategy(t, el, ranks, func(c *hypar.Config) {})
	patient := runStrategy(t, el, ranks, func(c *hypar.Config) { c.ConvergenceRatio = 1e-9 })

	if !(eager.Iterations < def.Iterations && def.Iterations <= patient.Iterations) {
		t.Errorf("iteration ordering violated: eager %d, default %d, patient %d",
			eager.Iterations, def.Iterations, patient.Iterations)
	}
	if eager.Levels > patient.Levels {
		t.Errorf("eager levels %d > patient levels %d", eager.Levels, patient.Levels)
	}
	if eager.PeakEdges < patient.PeakEdges {
		t.Errorf("eager peak %d < patient peak %d: eager merging should concentrate more data",
			eager.PeakEdges, patient.PeakEdges)
	}
}

// flatPriceDevice wraps a real CPU device but reports a constant price
// for any work, so the diminishing-benefit detector — which compares
// successive per-round prices — sees no improvement and must stop after
// the second round.
type flatPriceDevice struct{ inner device.Device }

func (d flatPriceDevice) Name() string { return "flat-" + d.inner.Name() }
func (d flatPriceDevice) Run(l *boruvka.Local, opt boruvka.Options) (*boruvka.Result, float64) {
	return d.inner.Run(l, opt)
}
func (d flatPriceDevice) Price(cost.Work) float64 { return 1 }

// pathWorkload builds a path graph with ruler-sequence weights (edge i
// weighted by the number of trailing zeros of i+1): round k of Boruvka
// merges exactly the neighbouring pairs of size-2^(k-1) components, so
// the kernel needs log2(n) rounds and an early stop after round 2
// observably leaves components unmerged.
func pathWorkload(n int) (ids []int32, edges []wire.WEdge) {
	ids = make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	edges = make([]wire.WEdge, n-1)
	for i := range edges {
		w := uint64(bits.TrailingZeros(uint(i+1)))<<20 | uint64(i)
		edges[i] = wire.WEdge{U: int32(i), V: int32(i + 1), W: w, ID: int32(i)}
	}
	return ids, edges
}

// TestDiminishingTerminationStopsOnFlatPrice drives IndComp on a device
// whose per-round price never diminishes: with the strategy off the
// kernel runs to a single component; with it on, the detector must cut
// the computation short and leave multiple components for later phases.
func TestDiminishingTerminationStopsOnFlatPrice(t *testing.T) {
	ids, edges := pathWorkload(256)
	for _, tc := range []struct {
		name       string
		diminish   bool
		singleComp bool
	}{
		{name: "off runs to completion", diminish: false, singleComp: true},
		{name: "on stops early", diminish: true, singleComp: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := hypar.DefaultConfig()
			cfg.DiminishingTermination = tc.diminish
			var res *hypar.IndResult
			_, err := cluster.New(1, cost.AMDCluster().Comm).Run(func(r *cluster.Rank) error {
				rt := hypar.New(r, flatPriceDevice{inner: &device.CPU{Model: cost.AMDCluster().CPU}}, nil, cfg)
				var err error
				res, err = rt.IndComp(append([]int32(nil), ids...), append([]wire.WEdge(nil), edges...))
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.singleComp && res.Components != 1 {
				t.Fatalf("full run left %d components, want 1", res.Components)
			}
			if !tc.singleComp && res.Components <= 1 {
				t.Fatalf("early-stopped run left %d components, want > 1", res.Components)
			}
		})
	}
}

// TestDiminishingTerminationIsNoOpWhenBenefitsDiminish pins that on real
// device models — where each Boruvka round is cheaper than the last — the
// detector never fires and the end-to-end run is bit-identical to the
// default. The strategy is a safety valve, not a behavior change.
func TestDiminishingTerminationIsNoOpWhenBenefitsDiminish(t *testing.T) {
	el := strategyGraph(t)
	off := runStrategy(t, el, 8, func(c *hypar.Config) { c.DiminishingTermination = false })
	on := runStrategy(t, el, 8, func(c *hypar.Config) { c.DiminishingTermination = true })
	if off.Report.ExecutionTime() != on.Report.ExecutionTime() || off.Iterations != on.Iterations {
		t.Errorf("diminishing termination changed the run: exe %g vs %g, iters %d vs %d",
			on.Report.ExecutionTime(), off.Report.ExecutionTime(), on.Iterations, off.Iterations)
	}
}
