package boruvka

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/mst"
	"mndmst/internal/wire"
)

// toWEdges converts graph edges to wire edges, preserving ids.
func toWEdges(es []graph.Edge) []wire.WEdge {
	out := make([]wire.WEdge, len(es))
	for i, e := range es {
		out[i] = wire.WEdge{U: e.U, V: e.V, W: e.W, ID: e.ID}
	}
	return out
}

// fullLocal wraps a whole edge list as a Local view with no externals.
func fullLocal(t *testing.T, el *graph.EdgeList) *Local {
	t.Helper()
	ids := make([]int32, el.N)
	for i := range ids {
		ids[i] = int32(i)
	}
	l, err := NewLocal(ids, toWEdges(el.Edges))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestKernelFullGraphMatchesKruskal(t *testing.T) {
	for _, el := range []*graph.EdgeList{
		gen.ConnectedRandom(100, 300, 1),
		gen.RoadNetwork(400, 2),
		gen.RMAT(256, 1500, 3),
		gen.Star(40, 4),
		gen.Path(40, 5),
	} {
		want := mst.FilterKruskal(el)
		res := Run(fullLocal(t, el), DefaultOptions())
		got := &mst.Forest{EdgeIDs: res.ChosenIDs, TotalWeight: res.ChosenWeight, Components: res.Components}
		if !want.Equal(got) {
			t.Fatalf("kernel disagrees with Kruskal: weight %d vs %d, edges %d vs %d",
				got.TotalWeight, want.TotalWeight, len(got.EdgeIDs), len(want.EdgeIDs))
		}
		if err := mst.VerifyForest(el, got); err != nil {
			t.Fatal(err)
		}
	}
}

func TestKernelEmptyAndTrivial(t *testing.T) {
	l, err := NewLocal(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(l, DefaultOptions())
	if len(res.ChosenIDs) != 0 || res.Components != 0 {
		t.Fatalf("empty result: %+v", res)
	}

	one, err := NewLocal([]int32{7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res = Run(one, DefaultOptions())
	if res.Components != 1 || res.Parent[0] != 7 {
		t.Fatalf("singleton result: %+v", res)
	}
}

func TestKernelSelfLoopsAndParallelEdges(t *testing.T) {
	edges := []wire.WEdge{
		{U: 0, V: 0, W: graph.MakeWeight(0, 0), ID: 0}, // lightest, a self-loop
		{U: 0, V: 1, W: graph.MakeWeight(9, 1), ID: 1},
		{U: 0, V: 1, W: graph.MakeWeight(2, 2), ID: 2}, // lighter parallel edge
	}
	l, err := NewLocal([]int32{0, 1}, edges)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(l, DefaultOptions())
	if len(res.ChosenIDs) != 1 || res.ChosenIDs[0] != 2 {
		t.Fatalf("chosen=%v want [2]", res.ChosenIDs)
	}
	if res.Components != 1 {
		t.Fatalf("components=%d", res.Components)
	}
}

func TestExceptionFreezesCutLightestComponent(t *testing.T) {
	// Local {0,1}; both have lighter cut edges to external vertex 9 than
	// their shared internal edge. Contracting 0-1 would be wrong (it is
	// not in the global MST), so the kernel must freeze both components.
	edges := []wire.WEdge{
		{U: 0, V: 9, W: graph.MakeWeight(1, 0), ID: 0},
		{U: 1, V: 9, W: graph.MakeWeight(2, 1), ID: 1},
		{U: 0, V: 1, W: graph.MakeWeight(10, 2), ID: 2},
	}
	l, err := NewLocal([]int32{0, 1}, edges)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(l, DefaultOptions())
	if len(res.ChosenIDs) != 0 {
		t.Fatalf("chosen=%v want none", res.ChosenIDs)
	}
	if res.Components != 2 {
		t.Fatalf("components=%d want 2", res.Components)
	}
	if res.FrozenComponents != 2 {
		t.Fatalf("frozen=%d want 2", res.FrozenComponents)
	}
}

func TestExceptionAllowsSafeInternalContraction(t *testing.T) {
	// Local {0,1}: 0 has a light cut edge but 1's lightest edge is the
	// internal 0-1, which IS in the global MST — it must contract.
	edges := []wire.WEdge{
		{U: 0, V: 9, W: graph.MakeWeight(1, 0), ID: 0},
		{U: 0, V: 1, W: graph.MakeWeight(5, 1), ID: 1},
	}
	l, err := NewLocal([]int32{0, 1}, edges)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(l, DefaultOptions())
	if len(res.ChosenIDs) != 1 || res.ChosenIDs[0] != 1 {
		t.Fatalf("chosen=%v want [1]", res.ChosenIDs)
	}
	if res.Components != 1 {
		t.Fatalf("components=%d want 1", res.Components)
	}
}

func TestBorderEdgeExceptionMoreConservative(t *testing.T) {
	// Same graph as the safe-contraction test: under EXCPT_BORDER_EDGE
	// vertex 0 is a border vertex, but vertex 1 is not, and 1's lightest
	// edge (the internal 0-1) still contracts. Add a cut edge at 1 to make
	// BOTH border vertices; then nothing may happen even though 1's
	// lightest is internal under BorderVertex semantics... construct:
	edges := []wire.WEdge{
		{U: 0, V: 9, W: graph.MakeWeight(1, 0), ID: 0},
		{U: 0, V: 1, W: graph.MakeWeight(2, 1), ID: 1},
		{U: 1, V: 8, W: graph.MakeWeight(5, 2), ID: 2},
	}
	l, err := NewLocal([]int32{0, 1}, edges)
	if err != nil {
		t.Fatal(err)
	}
	// BorderVertex semantics: comp{1}'s lightest is 0-1 (internal) →
	// contracts.
	res := Run(l, Options{Excpt: ExcptBorderVertex, DataDriven: true})
	if len(res.ChosenIDs) != 1 {
		t.Fatalf("BorderVertex chosen=%v", res.ChosenIDs)
	}
	// BorderEdge semantics: both vertices are border vertices → no steps.
	l2, _ := NewLocal([]int32{0, 1}, edges)
	res = Run(l2, Options{Excpt: ExcptBorderEdge, DataDriven: true})
	if len(res.ChosenIDs) != 0 {
		t.Fatalf("BorderEdge chosen=%v want none", res.ChosenIDs)
	}
}

// partitionChosen runs the kernel independently on contiguous partitions
// and returns the union of chosen edge ids.
func partitionChosen(t *testing.T, el *graph.EdgeList, parts int, opt Options) []int32 {
	t.Helper()
	g := graph.MustBuildCSR(el)
	var all []int32
	for p := 0; p < parts; p++ {
		lo := int32(p) * el.N / int32(parts)
		hi := int32(p+1) * el.N / int32(parts)
		ids := make([]int32, 0, hi-lo)
		for v := lo; v < hi; v++ {
			ids = append(ids, v)
		}
		edges := toWEdges(graph.VertexRangeSubgraph(g, lo, hi))
		l, err := NewLocal(ids, edges)
		if err != nil {
			t.Fatal(err)
		}
		res := Run(l, opt)
		all = append(all, res.ChosenIDs...)
	}
	return all
}

func TestIndependentPartitionsChooseOnlyMSTEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(8 + rng.Intn(120))
		m := int(n) * (1 + rng.Intn(5))
		el := gen.ErdosRenyi(n, m, seed)
		want := mst.FilterKruskal(el)
		inMST := map[int32]bool{}
		for _, id := range want.EdgeIDs {
			inMST[id] = true
		}
		parts := 2 + rng.Intn(4)
		for _, opt := range []Options{
			{Excpt: ExcptBorderVertex, DataDriven: true},
			{Excpt: ExcptBorderVertex, DataDriven: false},
			{Excpt: ExcptBorderEdge, DataDriven: true},
		} {
			seen := map[int32]bool{}
			for _, id := range partitionChosen(t, el, parts, opt) {
				if !inMST[id] {
					return false // chose a non-MST edge: unsafe!
				}
				if seen[id] {
					return false // two partitions chose the same edge
				}
				seen[id] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParentIsMinGlobalIDOfComponent(t *testing.T) {
	// Path 10-20-30 with global names; one component; representative 10.
	edges := []wire.WEdge{
		{U: 10, V: 20, W: graph.MakeWeight(1, 0), ID: 0},
		{U: 20, V: 30, W: graph.MakeWeight(2, 1), ID: 1},
	}
	l, err := NewLocal([]int32{30, 10, 20}, edges) // unsorted input ok
	if err != nil {
		t.Fatal(err)
	}
	res := Run(l, DefaultOptions())
	for i, id := range l.IDs {
		if res.Parent[i] != 10 {
			t.Fatalf("parent of %d = %d want 10", id, res.Parent[i])
		}
	}
}

func TestDataDrivenAndTopologySameResultDifferentWork(t *testing.T) {
	// A workload with heterogeneous component lifetimes: a long path that
	// needs many Boruvka rounds plus many triangles that finish after one.
	// The data-driven worklist stops rescanning the finished triangles;
	// the topology-driven kernel rescans everything every round.
	el := &graph.EdgeList{N: 2000}
	add := func(u, v int32) {
		id := int32(len(el.Edges))
		// Scrambled weights: with monotone weights the whole path would
		// contract in a single round.
		el.Edges = append(el.Edges, graph.Edge{
			U: u, V: v, ID: id, W: graph.MakeWeight(uint16(uint32(id)*2654435761>>13), id),
		})
	}
	for v := int32(0); v < 999; v++ { // path on vertices [0,1000)
		add(v, v+1)
	}
	for base := int32(1000); base+2 < 2000; base += 3 { // triangles
		add(base, base+1)
		add(base+1, base+2)
		add(base, base+2)
	}
	dd := Run(fullLocal(t, el), Options{Excpt: ExcptBorderVertex, DataDriven: true})
	td := Run(fullLocal(t, el), Options{Excpt: ExcptBorderVertex, DataDriven: false})
	fdd := &mst.Forest{EdgeIDs: dd.ChosenIDs, TotalWeight: dd.ChosenWeight, Components: dd.Components}
	ftd := &mst.Forest{EdgeIDs: td.ChosenIDs, TotalWeight: td.ChosenWeight, Components: td.Components}
	if !fdd.Equal(ftd) {
		t.Fatal("data-driven and topology-driven disagree")
	}
	if dd.Work.EdgesScanned >= td.Work.EdgesScanned {
		t.Fatalf("data-driven scanned %d edges, topology %d: worklist should save scans",
			dd.Work.EdgesScanned, td.Work.EdgesScanned)
	}
}

func TestKernelDeterministicCounters(t *testing.T) {
	el := gen.RMAT(512, 4096, 23)
	ref := Run(fullLocal(t, el), DefaultOptions())
	for i := 0; i < 5; i++ {
		got := Run(fullLocal(t, el), DefaultOptions())
		if got.Work != ref.Work {
			t.Fatalf("run %d: work differs:\n%+v\n%+v", i, got.Work, ref.Work)
		}
		if got.Rounds != ref.Rounds || got.ChosenWeight != ref.ChosenWeight {
			t.Fatalf("run %d: rounds/weight differ", i)
		}
		for r := range ref.RoundMerges {
			if got.RoundMerges[r] != ref.RoundMerges[r] {
				t.Fatalf("run %d: round %d merges %d vs %d", i, r, got.RoundMerges[r], ref.RoundMerges[r])
			}
		}
	}
}

func TestTerminatorStopsEarly(t *testing.T) {
	el := gen.RoadNetwork(2500, 29)
	full := Run(fullLocal(t, el), DefaultOptions())
	if full.Rounds < 3 {
		t.Skipf("graph converged in %d rounds; need ≥3 for this test", full.Rounds)
	}
	stopped := Run(fullLocal(t, el), Options{
		Excpt:      ExcptBorderVertex,
		DataDriven: true,
		Terminator: func(round int, w cost.Work, merges int) bool { return round >= 2 },
	})
	if stopped.Rounds != 2 {
		t.Fatalf("rounds=%d want 2", stopped.Rounds)
	}
	if stopped.Components <= full.Components {
		t.Fatalf("early stop should leave more components: %d vs %d", stopped.Components, full.Components)
	}
	// Early-stopped choices must still be a subset of the MST.
	want := mst.FilterKruskal(el)
	inMST := map[int32]bool{}
	for _, id := range want.EdgeIDs {
		inMST[id] = true
	}
	for _, id := range stopped.ChosenIDs {
		if !inMST[id] {
			t.Fatalf("early stop chose non-MST edge %d", id)
		}
	}
}

func TestWorkCountersPopulated(t *testing.T) {
	el := gen.RMAT(256, 2048, 31)
	res := Run(fullLocal(t, el), DefaultOptions())
	w := res.Work
	if w.EdgesScanned == 0 || w.VerticesProcessed == 0 || w.Iterations == 0 || w.AtomicOps == 0 {
		t.Fatalf("counters not populated: %+v", w)
	}
	if w.DegreeSkew <= 1 {
		t.Fatalf("RMAT skew should exceed 1: %f", w.DegreeSkew)
	}
	if int(w.Iterations) != res.Rounds {
		t.Fatalf("iterations %d != rounds %d", w.Iterations, res.Rounds)
	}
}

func TestNewLocalErrors(t *testing.T) {
	if _, err := NewLocal([]int32{1, 1}, nil); err == nil {
		t.Fatal("duplicate ids accepted")
	}
	if _, err := NewLocal([]int32{1}, []wire.WEdge{{U: 5, V: 6}}); err == nil {
		t.Fatal("fully-external edge accepted")
	}
}

func TestContractionSameResultFewerScans(t *testing.T) {
	// A high-diameter graph needs many rounds, so dropping internal arcs
	// between rounds must save scans without changing the forest.
	el := gen.RoadNetwork(4900, 37)
	plain := Run(fullLocal(t, el), Options{Excpt: ExcptBorderVertex, DataDriven: true})
	contracted := Run(fullLocal(t, el), Options{Excpt: ExcptBorderVertex, DataDriven: true, Contract: true})
	fp := &mst.Forest{EdgeIDs: plain.ChosenIDs, TotalWeight: plain.ChosenWeight, Components: plain.Components}
	fc := &mst.Forest{EdgeIDs: contracted.ChosenIDs, TotalWeight: contracted.ChosenWeight, Components: contracted.Components}
	if !fp.Equal(fc) {
		t.Fatal("contraction changed the forest")
	}
	if plain.Rounds < 4 {
		t.Skipf("graph converged in %d rounds; contraction has no room", plain.Rounds)
	}
	// The contraction pass itself costs scans; the *scan phase* savings
	// must still come out ahead on a many-round graph with topology-driven
	// scanning (where every vertex rescans all arcs each round).
	plainTD := Run(fullLocal(t, el), Options{Excpt: ExcptBorderVertex, DataDriven: false})
	contractedTD := Run(fullLocal(t, el), Options{Excpt: ExcptBorderVertex, DataDriven: false, Contract: true})
	if contractedTD.Work.EdgesScanned >= plainTD.Work.EdgesScanned {
		t.Fatalf("contraction did not save scans: %d vs %d",
			contractedTD.Work.EdgesScanned, plainTD.Work.EdgesScanned)
	}
}

func TestContractionWithPartitions(t *testing.T) {
	// Contraction must preserve the exception-condition safety.
	el := gen.ErdosRenyi(200, 900, 39)
	want := mst.FilterKruskal(el)
	inMST := map[int32]bool{}
	for _, id := range want.EdgeIDs {
		inMST[id] = true
	}
	opt := Options{Excpt: ExcptBorderVertex, DataDriven: true, Contract: true}
	for _, id := range partitionChosen(t, el, 4, opt) {
		if !inMST[id] {
			t.Fatalf("contracted kernel chose non-MST edge %d", id)
		}
	}
}

func TestHubHeavyGraphCorrect(t *testing.T) {
	// A star with a 100k-degree hub exercises the nested-parallel
	// hierarchical adjacency path.
	el := gen.Star(100_001, 57)
	res := Run(fullLocal(t, el), DefaultOptions())
	if res.Components != 1 || len(res.ChosenIDs) != 100_000 {
		t.Fatalf("components=%d edges=%d", res.Components, len(res.ChosenIDs))
	}
	want := mst.FilterKruskal(el)
	got := &mst.Forest{EdgeIDs: res.ChosenIDs, TotalWeight: res.ChosenWeight, Components: res.Components}
	if !want.Equal(got) {
		t.Fatal("hub graph forest wrong")
	}
	// Deterministic counters across runs through the hub path too.
	again := Run(fullLocal(t, el), DefaultOptions())
	if again.Work != res.Work {
		t.Fatalf("hub path nondeterministic: %+v vs %+v", again.Work, res.Work)
	}
}
