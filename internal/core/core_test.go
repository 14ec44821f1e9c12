package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mndmst/internal/boruvka"
	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
	"mndmst/internal/testutil"
)

func amd() cost.Machine  { return cost.AMDCluster() }
func cray() cost.Machine { return cost.CrayXC40() }

func TestMNDMSTMatchesKruskalAcrossRankCounts(t *testing.T) {
	el := gen.ConnectedRandom(600, 2400, 77)
	for _, p := range []int{1, 2, 3, 4, 8, 16} {
		res, err := Run(el, p, amd(), hypar.DefaultConfig(), false)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := VerifyAgainstOracle(el, res); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestMNDMSTWorkloadFamilies(t *testing.T) {
	for _, tc := range []struct {
		name string
		el   *graph.EdgeList
	}{
		{"road", gen.RoadNetwork(1600, 81)},
		{"rmat", gen.RMAT(1024, 8192, 82)},
		{"erdos-with-multiedges", gen.ErdosRenyi(500, 3000, 83)},
		{"path", gen.Path(200, 84)},
		{"star", gen.Star(300, 85)},
		{"cycle", gen.Cycle(128, 86)},
	} {
		res, err := Run(tc.el, 4, amd(), hypar.DefaultConfig(), false)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := VerifyAgainstOracle(tc.el, res); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

func TestMNDMSTDisconnectedGraph(t *testing.T) {
	// Three islands, one of them a single vertex.
	mk := func(u, v int32, w uint16, id int32) graph.Edge {
		return graph.Edge{U: u, V: v, W: graph.MakeWeight(w, id), ID: id}
	}
	el := &graph.EdgeList{N: 9, Edges: []graph.Edge{
		mk(0, 1, 5, 0), mk(1, 2, 3, 1), mk(0, 2, 9, 2),
		mk(4, 5, 2, 3), mk(5, 6, 8, 4),
	}}
	res, err := Run(el, 3, amd(), hypar.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainstOracle(el, res); err != nil {
		t.Fatal(err)
	}
	if res.Forest.Components != 5 { // {0,1,2}, {4,5,6}, {3}, {7}, {8}
		t.Fatalf("components=%d want 5", res.Forest.Components)
	}
}

func TestMNDMSTEmptyEdgeGraph(t *testing.T) {
	el := &graph.EdgeList{N: 10}
	res, err := Run(el, 2, amd(), hypar.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Forest.EdgeIDs) != 0 || res.Forest.Components != 10 {
		t.Fatalf("forest=%+v", res.Forest)
	}
}

func TestMNDMSTMoreRanksThanVertices(t *testing.T) {
	el := gen.ConnectedRandom(6, 10, 87)
	res, err := Run(el, 8, amd(), hypar.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainstOracle(el, res); err != nil {
		t.Fatal(err)
	}
}

func TestMNDMSTWithGPU(t *testing.T) {
	el := gen.RMAT(2048, 32768, 88)
	cfg := hypar.DefaultConfig()
	cfg.MinGPUEdges = 512
	res, err := Run(el, 4, cray(), cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainstOracle(el, res); err != nil {
		t.Fatal(err)
	}
}

func TestMNDMSTGPUFasterOnLargeGraphs(t *testing.T) {
	el := gen.WebGraph(16384, 16384*30, 0.85, 89)
	cfg := hypar.DefaultConfig()
	cpuRes, err := Run(el, 4, cray(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	gpuRes, err := Run(el, 4, cray(), cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainstOracle(el, gpuRes); err != nil {
		t.Fatal(err)
	}
	tCPU := cpuRes.Report.ExecutionTime()
	tGPU := gpuRes.Report.ExecutionTime()
	if tGPU >= tCPU {
		t.Fatalf("GPU run (%g) not faster than CPU-only (%g)", tGPU, tCPU)
	}
	// Consistent with §5.4: the improvement is bounded (≤ ~35% at our
	// scale), not a blowout.
	if (tCPU-tGPU)/tCPU > 0.5 {
		t.Fatalf("GPU improvement %.0f%% implausibly large", 100*(tCPU-tGPU)/tCPU)
	}
}

func TestMNDMSTDeterministicTimes(t *testing.T) {
	el := gen.RMAT(512, 4096, 90)
	ref, err := Run(el, 4, amd(), hypar.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := Run(el, 4, amd(), hypar.DefaultConfig(), false)
		if err != nil {
			t.Fatal(err)
		}
		if got.Report.ExecutionTime() != ref.Report.ExecutionTime() ||
			got.Report.CommTime() != ref.Report.CommTime() ||
			got.Report.TotalBytes() != ref.Report.TotalBytes() {
			t.Fatalf("run %d: simulated metrics differ", i)
		}
		if !got.Forest.Equal(ref.Forest) {
			t.Fatalf("run %d: forest differs", i)
		}
	}
}

func TestMNDMSTPropertyRandomGraphsAndClusterShapes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(10 + rng.Intn(300))
		m := int(n) * (1 + rng.Intn(4))
		el := gen.ErdosRenyi(n, m, seed)
		p := 1 + rng.Intn(8)
		cfg := hypar.DefaultConfig()
		cfg.GroupSize = 2 + rng.Intn(3)
		res, err := Run(el, p, amd(), cfg, false)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := VerifyAgainstOracle(el, res); err != nil {
			t.Logf("seed %d p=%d: %v", seed, p, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, testutil.Quick(t, 1, 25)); err != nil {
		t.Fatal(err)
	}
}

func TestMNDMSTGroupSizeVariants(t *testing.T) {
	el := gen.RMAT(512, 3000, 91)
	for _, gs := range []int{2, 4, 8, 16} {
		cfg := hypar.DefaultConfig()
		cfg.GroupSize = gs
		res, err := Run(el, 16, amd(), cfg, false)
		if err != nil {
			t.Fatalf("groupSize=%d: %v", gs, err)
		}
		if err := VerifyAgainstOracle(el, res); err != nil {
			t.Fatalf("groupSize=%d: %v", gs, err)
		}
	}
}

func TestMNDMSTExceptionConditionVariants(t *testing.T) {
	el := gen.RMAT(512, 3000, 92)
	for _, ex := range []boruvka.ExceptionCond{boruvka.ExcptBorderVertex, boruvka.ExcptBorderEdge} {
		cfg := hypar.DefaultConfig()
		cfg.Excpt = ex
		res, err := Run(el, 4, amd(), cfg, false)
		if err != nil {
			t.Fatalf("excpt=%d: %v", ex, err)
		}
		if err := VerifyAgainstOracle(el, res); err != nil {
			t.Fatalf("excpt=%d: %v", ex, err)
		}
	}
}

func TestMNDMSTDiminishingTermination(t *testing.T) {
	el := gen.RoadNetwork(2500, 93)
	cfg := hypar.DefaultConfig()
	cfg.DiminishingTermination = true
	res, err := Run(el, 4, amd(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainstOracle(el, res); err != nil {
		t.Fatal(err)
	}
}

func TestMNDMSTPhaseBreakdownPresent(t *testing.T) {
	el := gen.RMAT(512, 4096, 94)
	res, err := Run(el, 4, amd(), hypar.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	names := res.Report.PhaseNames()
	want := map[string]bool{PhasePartition: false, PhaseIndComp: false, PhaseMerge: false, PhasePostProcess: false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for ph, seen := range want {
		if !seen {
			t.Fatalf("phase %q missing from report (have %v)", ph, names)
		}
	}
	comp, _ := res.Report.PhaseTime(PhaseIndComp)
	if comp <= 0 {
		t.Fatal("indComp compute time is zero")
	}
}

func TestMNDMSTScalesAcrossNodes(t *testing.T) {
	// A large-enough web-like graph must run faster on 8 ranks than on 1
	// (the paper's Table 4 behaviour).
	el := gen.WebGraph(16384, 16384*25, 0.85, 95)
	cfg := hypar.DefaultConfig()
	t1, err := Run(el, 1, amd(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	t8, err := Run(el, 8, amd(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if t8.Report.ExecutionTime() >= t1.Report.ExecutionTime() {
		t.Fatalf("8 ranks (%g s) not faster than 1 (%g s)",
			t8.Report.ExecutionTime(), t1.Report.ExecutionTime())
	}
}
