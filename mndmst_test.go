package mndmst

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/parutil"
)

func TestPublicAPIQuickstart(t *testing.T) {
	g := GenerateWebGraph(4096, 40_000, 0.85, 1)
	res, err := FindMSF(g, Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
	seq := FindMSFSequential(g)
	if seq.TotalWeight != res.TotalWeight {
		t.Fatalf("weights differ: %d vs %d", seq.TotalWeight, res.TotalWeight)
	}
	if res.SimSeconds <= 0 || res.ComputeSeconds <= 0 {
		t.Fatalf("metrics missing: %+v", res)
	}
	if len(res.Phases) == 0 {
		t.Fatal("no phase breakdown")
	}
}

func TestPublicAPIBSPAgreesWithMND(t *testing.T) {
	g := GenerateRoadNetwork(900, 2)
	a, err := FindMSF(g, Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindMSFBSP(g, Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalWeight != b.TotalWeight || len(a.EdgeIDs) != len(b.EdgeIDs) {
		t.Fatal("MND and BSP disagree")
	}
	if err := Verify(g, b); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPINewGraphAndAccessors(t *testing.T) {
	g, err := NewGraph(3, []Edge{{U: 0, V: 1, Weight: 5}, {U: 1, V: 2, Weight: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("counts: %d %d", g.NumVertices(), g.NumEdges())
	}
	if e := g.EdgeAt(1); e.U != 1 || e.V != 2 || e.Weight != 3 {
		t.Fatalf("edge=%+v", e)
	}
	res, err := FindMSF(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EdgeIDs) != 2 || res.Components != 1 {
		t.Fatalf("res=%+v", res)
	}

	if _, err := NewGraph(2, []Edge{{U: 0, V: 5}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestPublicAPIGPU(t *testing.T) {
	g := GenerateWebGraph(8192, 120_000, 0.85, 3)
	res, err := FindMSF(g, Options{Nodes: 4, Machine: CrayXC40, UseGPU: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIProfilesAndStats(t *testing.T) {
	names := ProfileNames()
	if len(names) != 6 || names[0] != "road_usa" {
		t.Fatalf("profiles=%v", names)
	}
	g, err := GenerateProfile("road_usa", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	st := g.ComputeStats()
	if st.Vertices == 0 || st.AvgDegree <= 0 || st.ApproxDiam <= 0 {
		t.Fatalf("stats=%+v", st)
	}
	if _, err := GenerateProfile("nope", 1); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestPublicAPISaveLoad(t *testing.T) {
	g := GenerateRMAT(128, 512, 4)
	path := filepath.Join(t.TempDir(), "g.mnd")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() || back.NumVertices() != g.NumVertices() {
		t.Fatal("round trip size mismatch")
	}
	a := FindMSFSequential(g)
	b := FindMSFSequential(back)
	if a.TotalWeight != b.TotalWeight {
		t.Fatal("round trip changed the MSF")
	}
}

// TestLoadGraphDuplicateWeights: a graph file keeps its raw weights, and
// nothing rejects equal ones, so the sequential oracle must still
// terminate on them with a forest Verify accepts.
func TestLoadGraphDuplicateWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	el := &graph.EdgeList{N: 1000, Edges: make([]graph.Edge, 5000)}
	for i := range el.Edges {
		el.Edges[i] = graph.Edge{U: rng.Int31n(el.N), V: rng.Int31n(el.N), W: 42, ID: int32(i)}
	}
	path := filepath.Join(t.TempDir(), "ties.mnd")
	if err := graph.SaveEdgeList(path, el); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	res := FindMSFSequential(g)
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
	if want := uint64(42 * len(res.EdgeIDs)); res.TotalWeight != want {
		t.Fatalf("weight %d, want %d", res.TotalWeight, want)
	}
}

// TestFindMSFDeterministicOnDuplicateRawWeights loads a web-shaped file
// whose raw weights repeat (a file need not carry MakeWeight's distinct
// packed weights) and requires FindMSF to return one forest and one
// simulated time on every call, whatever the host parallelism. Ties are
// decided by edge id everywhere on the core path, including multi-edge
// removal.
func TestFindMSFDeterministicOnDuplicateRawWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	el := gen.WebGraph(3000, 30_000, 0.8, 15)
	for i := range el.Edges {
		el.Edges[i].W = uint64(rng.Intn(4))
	}
	path := filepath.Join(t.TempDir(), "ties.mnd")
	if err := graph.SaveEdgeList(path, el); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer parutil.SetMaxWorkers(parutil.MaxWorkers())
	var first *Result
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		parutil.SetMaxWorkers(procs)
		for call := 0; call < 20; call++ {
			res, err := FindMSF(g, Options{Nodes: 8})
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res
				if err := Verify(g, res); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if !slices.Equal(res.EdgeIDs, first.EdgeIDs) || res.SimSeconds != first.SimSeconds {
				t.Fatalf("GOMAXPROCS %d, call %d: %d edges, sim %v s; first call: %d edges, sim %v s",
					procs, call, len(res.EdgeIDs), res.SimSeconds, len(first.EdgeIDs), first.SimSeconds)
			}
		}
	}
}

func TestPublicAPIOptionVariants(t *testing.T) {
	g := GenerateWebGraph(2048, 16_000, 0.8, 5)
	want := FindMSFSequential(g)
	for _, opts := range []Options{
		{Nodes: 4, GroupSize: 2},
		{Nodes: 4, Exception: BorderEdge},
		{Nodes: 4, DiminishingTermination: true},
		{Nodes: 4, TopologyDriven: true},
		{Nodes: 0}, // defaults
	} {
		res, err := FindMSF(g, opts)
		if err != nil {
			t.Fatalf("opts=%+v: %v", opts, err)
		}
		if res.TotalWeight != want.TotalWeight {
			t.Fatalf("opts=%+v: wrong forest", opts)
		}
	}
}

func TestMachineString(t *testing.T) {
	if AMDCluster.String() == "" || CrayXC40.String() == "" {
		t.Fatal("machine names empty")
	}
	if AMDCluster.String() == CrayXC40.String() {
		t.Fatal("machine names collide")
	}
}

func TestPublicAPIContraction(t *testing.T) {
	g := GenerateRoadNetwork(2500, 11)
	want := FindMSFSequential(g)
	res, err := FindMSF(g, Options{Nodes: 4, Contraction: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWeight != want.TotalWeight {
		t.Fatal("contraction changed the forest")
	}
}

func TestPublicAPITrace(t *testing.T) {
	g := GenerateWebGraph(2048, 16_000, 0.8, 7)
	res, err := FindMSF(g, Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("trace missing")
	}
	var jsonl, csv strings.Builder
	if err := res.Trace.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `"kind":"rank"`) {
		t.Fatal("jsonl missing rank records")
	}
	if !strings.Contains(csv.String(), "rank,phase") {
		t.Fatal("csv missing header")
	}
	if !strings.Contains(res.Trace.Profile(), "load balance") {
		t.Fatal("profile missing summary")
	}
	if FindMSFSequential(g).Trace != nil {
		t.Fatal("sequential result should have no trace")
	}
}

func TestPublicAPIShared(t *testing.T) {
	g := GenerateWebGraph(8192, 100_000, 0.85, 13)
	shared, err := FindMSFShared(g)
	if err != nil {
		t.Fatal(err)
	}
	seq := FindMSFSequential(g)
	if shared.TotalWeight != seq.TotalWeight || len(shared.EdgeIDs) != len(seq.EdgeIDs) {
		t.Fatal("shared-memory kernel disagrees with sequential")
	}
	if err := Verify(g, shared); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPITextGraph(t *testing.T) {
	g := GenerateRMAT(64, 256, 15)
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := SaveTextGraph(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTextGraph(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d vs %d", back.NumEdges(), g.NumEdges())
	}
	a := FindMSFSequential(g)
	b := FindMSFSequential(back)
	if a.TotalWeight != b.TotalWeight {
		t.Fatal("text round trip changed the MSF")
	}
	if _, err := LoadTextGraph(filepath.Join(t.TempDir(), "nope"), 1); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestPublicAPIHeterogeneous(t *testing.T) {
	g := GenerateWebGraph(2048, 20_000, 0.85, 17)
	res, err := FindMSF(g, Options{Nodes: 3, NodeSpeeds: []float64{1, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
	if _, err := FindMSF(g, Options{Nodes: 2, NodeSpeeds: []float64{1, 2, 3}}); err == nil {
		t.Fatal("mismatched NodeSpeeds length accepted")
	}
}
