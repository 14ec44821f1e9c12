package mst

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mndmst/internal/gen"
	"mndmst/internal/graph"
)

// knownGraph returns a small graph with a hand-computed MST.
//
//	0 --1-- 1
//	|      /|
//	4    2  3
//	|  /    |
//	2 --5-- 3
//
// weights (rand parts): 0-1:1, 1-2:2, 1-3:3, 0-2:4, 2-3:5
// MST: {0-1, 1-2, 1-3} (edge ids 0, 1, 2).
func knownGraph() *graph.EdgeList {
	mk := func(u, v int32, w uint16, id int32) graph.Edge {
		return graph.Edge{U: u, V: v, W: graph.MakeWeight(w, id), ID: id}
	}
	return &graph.EdgeList{N: 4, Edges: []graph.Edge{
		mk(0, 1, 1, 0),
		mk(1, 2, 2, 1),
		mk(1, 3, 3, 2),
		mk(0, 2, 4, 3),
		mk(2, 3, 5, 4),
	}}
}

func TestKruskalKnownGraph(t *testing.T) {
	el := knownGraph()
	f := Kruskal(el)
	if len(f.EdgeIDs) != 3 || f.Components != 1 {
		t.Fatalf("forest=%+v", f)
	}
	want := []int32{0, 1, 2}
	for i, id := range f.EdgeIDs {
		if id != want[i] {
			t.Fatalf("edges=%v want %v", f.EdgeIDs, want)
		}
	}
	if err := VerifyForest(el, f); err != nil {
		t.Fatal(err)
	}
}

func TestPrimAndBoruvkaMatchKruskalKnown(t *testing.T) {
	el := knownGraph()
	k := Kruskal(el)
	p := Prim(graph.MustBuildCSR(el))
	b := Boruvka(el)
	if !k.Equal(p) {
		t.Fatalf("prim=%+v kruskal=%+v", p, k)
	}
	if !k.Equal(b) {
		t.Fatalf("boruvka=%+v kruskal=%+v", b, k)
	}
}

func TestMSFOnDisconnectedGraph(t *testing.T) {
	mk := func(u, v int32, w uint16, id int32) graph.Edge {
		return graph.Edge{U: u, V: v, W: graph.MakeWeight(w, id), ID: id}
	}
	// Components {0,1,2} and {3,4}; vertex 5 isolated.
	el := &graph.EdgeList{N: 6, Edges: []graph.Edge{
		mk(0, 1, 2, 0), mk(1, 2, 1, 1), mk(0, 2, 9, 2),
		mk(3, 4, 4, 3),
	}}
	for name, f := range map[string]*Forest{
		"kruskal": Kruskal(el),
		"prim":    Prim(graph.MustBuildCSR(el)),
		"boruvka": Boruvka(el),
	} {
		if len(f.EdgeIDs) != 3 {
			t.Fatalf("%s: edges=%v", name, f.EdgeIDs)
		}
		if f.Components != 3 {
			t.Fatalf("%s: components=%d want 3", name, f.Components)
		}
		if err := VerifyForest(el, f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestMSFIgnoresSelfLoopsAndParallelEdges(t *testing.T) {
	mk := func(u, v int32, w uint16, id int32) graph.Edge {
		return graph.Edge{U: u, V: v, W: graph.MakeWeight(w, id), ID: id}
	}
	el := &graph.EdgeList{N: 3, Edges: []graph.Edge{
		mk(0, 0, 0, 0), // self-loop, lightest of all — must be ignored
		mk(0, 1, 5, 1), // parallel pair: this one heavier
		mk(0, 1, 2, 2), // ... this one lighter, must win
		mk(1, 2, 3, 3),
	}}
	k := Kruskal(el)
	if len(k.EdgeIDs) != 2 || k.EdgeIDs[0] != 2 || k.EdgeIDs[1] != 3 {
		t.Fatalf("edges=%v want [2 3]", k.EdgeIDs)
	}
	if !k.Equal(Boruvka(el)) || !k.Equal(Prim(graph.MustBuildCSR(el))) {
		t.Fatal("algorithms disagree on multigraph")
	}
	if err := VerifyForest(el, k); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAndTrivialGraphs(t *testing.T) {
	empty := &graph.EdgeList{N: 0}
	single := &graph.EdgeList{N: 1}
	for _, el := range []*graph.EdgeList{empty, single} {
		k := Kruskal(el)
		if len(k.EdgeIDs) != 0 {
			t.Fatalf("edges=%v", k.EdgeIDs)
		}
		if !k.Equal(Boruvka(el)) || !k.Equal(Prim(graph.MustBuildCSR(el))) {
			t.Fatal("trivial graphs disagree")
		}
		if err := VerifyForest(el, k); err != nil {
			t.Fatal(err)
		}
	}
}

func TestThreeAlgorithmsAgreeOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(2 + rng.Intn(80))
		m := rng.Intn(300)
		el := gen.ErdosRenyi(n, m, seed)
		k := Kruskal(el)
		if !k.Equal(Prim(graph.MustBuildCSR(el))) {
			return false
		}
		if !k.Equal(Boruvka(el)) {
			return false
		}
		return VerifyForest(el, k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAgreeOnWorkloadFamilies(t *testing.T) {
	for _, el := range []*graph.EdgeList{
		gen.RoadNetwork(400, 31),
		gen.RMAT(256, 2048, 32),
		gen.Path(50, 33),
		gen.Cycle(50, 34),
		gen.Star(50, 35),
	} {
		k := Kruskal(el)
		if !k.Equal(Boruvka(el)) {
			t.Fatalf("boruvka disagrees on %d-vertex graph", el.N)
		}
		if !k.Equal(Prim(graph.MustBuildCSR(el))) {
			t.Fatalf("prim disagrees on %d-vertex graph", el.N)
		}
		if err := VerifyForest(el, k); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVerifyForestRejectsBadForests(t *testing.T) {
	el := knownGraph()
	good := Kruskal(el)

	cyc := &Forest{EdgeIDs: []int32{0, 1, 3}, Components: 1}
	for _, id := range cyc.EdgeIDs {
		cyc.TotalWeight += el.Edges[id].W
	}
	if VerifyForest(el, cyc) == nil {
		t.Fatal("cycle-inducing... wait, {0,1,3} = 0-1,1-2,0-2 IS a cycle; must be rejected")
	}

	nonMin := &Forest{EdgeIDs: []int32{0, 3, 4}, Components: 1} // spanning but heavier
	for _, id := range nonMin.EdgeIDs {
		nonMin.TotalWeight += el.Edges[id].W
	}
	if VerifyForest(el, nonMin) == nil {
		t.Fatal("non-minimal spanning tree accepted")
	}

	short := &Forest{EdgeIDs: []int32{0}, Components: 3, TotalWeight: el.Edges[0].W}
	if VerifyForest(el, short) == nil {
		t.Fatal("non-spanning forest accepted")
	}

	dupe := &Forest{EdgeIDs: []int32{0, 0}, Components: 2, TotalWeight: 2 * el.Edges[0].W}
	if VerifyForest(el, dupe) == nil {
		t.Fatal("duplicate edge accepted")
	}

	badW := &Forest{EdgeIDs: append([]int32(nil), good.EdgeIDs...), Components: 1, TotalWeight: good.TotalWeight + 1}
	if VerifyForest(el, badW) == nil {
		t.Fatal("wrong declared weight accepted")
	}

	badID := &Forest{EdgeIDs: []int32{99}, Components: 3}
	if VerifyForest(el, badID) == nil {
		t.Fatal("out-of-range id accepted")
	}

	badComp := &Forest{EdgeIDs: append([]int32(nil), good.EdgeIDs...), Components: 7, TotalWeight: good.TotalWeight}
	if VerifyForest(el, badComp) == nil {
		t.Fatal("wrong component count accepted")
	}
}

func TestForestEqual(t *testing.T) {
	a := &Forest{EdgeIDs: []int32{2, 1}, TotalWeight: 10}
	b := &Forest{EdgeIDs: []int32{1, 2}, TotalWeight: 10}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("order should not matter")
	}
	if !slices.Equal(a.EdgeIDs, []int32{2, 1}) || !slices.Equal(b.EdgeIDs, []int32{1, 2}) {
		t.Fatalf("Equal reordered its operands: %v, %v", a.EdgeIDs, b.EdgeIDs)
	}
	c := &Forest{EdgeIDs: []int32{1, 3}, TotalWeight: 10}
	if a.Equal(c) {
		t.Fatal("different edges compared equal")
	}
}
