package mst

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/testutil"
)

func TestFilterKruskalKnownGraph(t *testing.T) {
	el := knownGraph()
	f := FilterKruskal(el)
	if !Kruskal(el).Equal(f) {
		t.Fatalf("filter-kruskal forest=%+v", f)
	}
	if err := VerifyForest(el, f); err != nil {
		t.Fatal(err)
	}
}

func TestFilterKruskalMatchesKruskalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(2 + rng.Intn(150))
		m := rng.Intn(int(n) * 5)
		el := gen.ErdosRenyi(n, m, seed)
		return Kruskal(el).Equal(FilterKruskal(el))
	}
	if err := quick.Check(f, testutil.Quick(t, 1, 40)); err != nil {
		t.Fatal(err)
	}
}

func TestFilterKruskalLargeRecursion(t *testing.T) {
	// Big enough to take the recursive path several levels deep.
	big := gen.WebGraph(4096, 4*baseSize, 0.8, 17)
	if !Kruskal(big).Equal(FilterKruskal(big)) {
		t.Fatal("filter-kruskal disagrees on a large graph")
	}
	road := gen.RoadNetwork(2500, 19)
	if !Kruskal(road).Equal(FilterKruskal(road)) {
		t.Fatal("filter-kruskal disagrees on road network")
	}
}

func TestFilterKruskalDegenerate(t *testing.T) {
	empty := FilterKruskal(&graph.EdgeList{N: 0})
	if len(empty.EdgeIDs) != 0 || empty.Components != 0 {
		t.Fatalf("empty forest=%+v", empty)
	}
	loops := FilterKruskal(&graph.EdgeList{N: 2, Edges: []graph.Edge{
		{U: 0, V: 0, W: graph.MakeWeight(1, 0), ID: 0},
		{U: 1, V: 1, W: graph.MakeWeight(2, 1), ID: 1},
	}})
	if len(loops.EdgeIDs) != 0 || loops.Components != 2 {
		t.Fatalf("loops forest=%+v", loops)
	}
}

// tiedGraph is an n-vertex graph of m random edges whose weights are the
// raw values in ws, drawn at random, so most weights repeat.
func tiedGraph(n int32, m int, ws []uint64, seed int64) *graph.EdgeList {
	rng := rand.New(rand.NewSource(seed))
	el := &graph.EdgeList{N: n, Edges: make([]graph.Edge, m)}
	for i := range el.Edges {
		el.Edges[i] = graph.Edge{U: rng.Int31n(n), V: rng.Int31n(n), W: ws[rng.Intn(len(ws))], ID: int32(i)}
	}
	return el
}

func TestFilterKruskalDuplicateWeights(t *testing.T) {
	// The larger size takes the partition path, whose split makes no
	// progress when every weight is equal.
	for _, m := range []int{5000, baseSize + 5000} {
		for _, ws := range [][]uint64{{42}, {42, 43}} {
			el := tiedGraph(1000, m, ws, int64(m))
			f, want := FilterKruskal(el), Kruskal(el)
			if f.TotalWeight != want.TotalWeight || f.Components != want.Components {
				t.Fatalf("m=%d weights %v: weight %d, %d components; Kruskal %d, %d",
					m, ws, f.TotalWeight, f.Components, want.TotalWeight, want.Components)
			}
			if err := VerifyForest(el, f); err != nil {
				t.Fatalf("m=%d weights %v: %v", m, ws, err)
			}
		}
	}
}

func TestRadixSortOrdersByWeightLess(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	es := make([]edge, 5000)
	for i := range es {
		// Every byte of the weight varies, and values repeat.
		es[i] = edge{w: rng.Uint64() >> (8 * rng.Intn(8)) & ^uint64(7), id: int32(i)}
	}
	radixSort(es, make([]edge, len(es)))
	for i := 1; i < len(es); i++ {
		a, b := es[i-1], es[i]
		if graph.WeightLess(b.w, a.w) || (a.w == b.w && a.id > b.id) {
			t.Fatalf("position %d: (w=%d, id=%d) before (w=%d, id=%d)", i, a.w, a.id, b.w, b.id)
		}
	}
}

// FuzzFilterKruskal decodes a small graph, one byte for the vertex count
// and three per edge (endpoints and a small weight), so self-loops,
// isolated vertices and duplicate weights are all common. The forest must
// verify and weigh what Kruskal's does.
func FuzzFilterKruskal(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 2, 1, 2, 3, 1, 0, 3, 1})
	f.Add([]byte{6, 0, 0, 0, 0, 1, 5, 0, 1, 2, 3, 4, 2})
	f.Add([]byte{1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int32(data[0]%64) + 1
		el := &graph.EdgeList{N: n}
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			el.Edges = append(el.Edges, graph.Edge{
				U: int32(b[0]) % n, V: int32(b[1]) % n, W: uint64(b[2] % 8), ID: int32(len(el.Edges)),
			})
		}
		got, want := FilterKruskal(el), Kruskal(el)
		if err := VerifyForest(el, got); err != nil {
			t.Fatal(err)
		}
		if got.TotalWeight != want.TotalWeight || got.Components != want.Components {
			t.Fatalf("weight %d, %d components; Kruskal %d, %d",
				got.TotalWeight, got.Components, want.TotalWeight, want.Components)
		}
		if !slices.IsSorted(got.EdgeIDs) {
			t.Fatalf("edge ids not sorted: %v", got.EdgeIDs)
		}
	})
}
