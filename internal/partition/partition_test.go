package partition

import (
	"fmt"
	"testing"
	"testing/quick"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/testutil"
	"mndmst/internal/wire"
)

func testComm() cost.CommModel { return cost.CommModel{Latency: 1e-6, Bandwidth: 1e9} }

func TestBalancedBoundsUniform(t *testing.T) {
	deg := make([]int64, 100)
	for i := range deg {
		deg[i] = 4
	}
	b := BalancedBounds(deg, 4)
	want := []int32{0, 25, 50, 75, 100}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds=%v want %v", b, want)
		}
	}
}

func TestBalancedBoundsSkewed(t *testing.T) {
	// One hub with degree 1000, everyone else degree 1: the hub's
	// partition should be small in vertex count.
	deg := make([]int64, 100)
	for i := range deg {
		deg[i] = 1
	}
	deg[0] = 1000
	b := BalancedBounds(deg, 4)
	if b[0] != 0 || b[4] != 100 {
		t.Fatalf("bounds=%v", b)
	}
	// Partition 0 contains the hub and must be tiny.
	if b[1] > 5 {
		t.Fatalf("hub partition spans %d vertices: %v", b[1], b)
	}
	// Every vertex is covered exactly once, boundaries monotone.
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			t.Fatalf("non-monotone bounds %v", b)
		}
	}
}

func TestBalancedBoundsMoreRanksThanVertices(t *testing.T) {
	b := BalancedBounds([]int64{3, 3}, 5)
	if b[0] != 0 || b[len(b)-1] != 2 {
		t.Fatalf("bounds=%v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			t.Fatalf("non-monotone %v", b)
		}
	}
}

func TestOwnerOfInverseOfBounds(t *testing.T) {
	f := func(seed int64) bool {
		n := 50
		deg := make([]int64, n)
		for i := range deg {
			deg[i] = int64(1 + (int(seed)+i*7)%13)
		}
		p := 1 + int(uint64(seed)%7)
		b := BalancedBounds(deg, p)
		for v := int32(0); v < int32(n); v++ {
			o := OwnerOf(b, v)
			if o < 0 || o >= p || v < b[o] || v >= b[o+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testutil.Quick(t, 1, 50)); err != nil {
		t.Fatal(err)
	}
}

func TestReadCoversAllEdges(t *testing.T) {
	el := gen.RMAT(512, 4096, 41)
	g := graph.MustBuildCSR(el)
	for _, p := range []int{1, 2, 4, 7} {
		c := cluster.New(p, testComm())
		counts := make([]map[int32]int, p)
		_, err := c.Run(func(r *cluster.Rank) error {
			part, w := Read(r, g)
			if w.VerticesProcessed == 0 && g.N > 0 {
				return fmt.Errorf("no partition work reported")
			}
			m := map[int32]int{}
			for _, e := range part.Edges {
				m[e.ID]++
				if m[e.ID] > 1 {
					return fmt.Errorf("edge %d twice in one part", e.ID)
				}
			}
			counts[r.ID()] = m
			// Bounds identical across ranks and consistent with [Lo,Hi).
			if part.Bounds[r.ID()] != part.Lo || part.Bounds[r.ID()+1] != part.Hi {
				return fmt.Errorf("bounds inconsistent: %v vs [%d,%d)", part.Bounds, part.Lo, part.Hi)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Every edge appears once (internal) or twice (cut).
		total := map[int32]int{}
		for _, m := range counts {
			for id, c := range m {
				total[id] += c
			}
		}
		for _, e := range el.Edges {
			c := total[e.ID]
			if c != 1 && c != 2 {
				t.Fatalf("p=%d: edge %d appears %d times", p, e.ID, c)
			}
		}
		if len(total) != len(el.Edges) {
			t.Fatalf("p=%d: %d distinct edges, want %d", p, len(total), len(el.Edges))
		}
	}
}

func TestReadBalancesEdges(t *testing.T) {
	el := gen.RMAT(1024, 16384, 43)
	g := graph.MustBuildCSR(el)
	const p = 8
	c := cluster.New(p, testComm())
	sizes := make([]int, p)
	_, err := c.Run(func(r *cluster.Rank) error {
		part, _ := Read(r, g)
		sizes[r.ID()] = len(part.Edges)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	min, max := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	// Degree-balanced 1D partitioning should keep imbalance moderate even
	// on a power-law graph (hub partitions shrink in vertex count).
	if min == 0 || float64(max)/float64(min) > 3.5 {
		t.Fatalf("edge imbalance too high: sizes=%v", sizes)
	}
}

// TestReadWeightedStrategies: ByVertex cuts equal vertex counts, speed
// weights route to WeightedBounds, and every rank's part owns exactly its
// bounds.
func TestReadWeightedStrategies(t *testing.T) {
	el := gen.RMAT(256, 2048, 49)
	g := graph.MustBuildCSR(el)
	const p = 4
	degrees := make([]int64, g.N)
	for v := range degrees {
		degrees[v] = g.Degree(int32(v))
	}
	speeds := []float64{1, 2, 1, 4}
	for _, tc := range []struct {
		name   string
		strat  Strategy
		speeds []float64
		want   []int32
	}{
		{"by-vertex", ByVertex, nil, []int32{0, 64, 128, 192, 256}},
		{"weighted", ByDegree, speeds, WeightedBounds(degrees, speeds)},
		{"speeds-wrong-length", ByDegree, speeds[:2], BalancedBounds(degrees, p)},
	} {
		c := cluster.New(p, testComm())
		_, err := c.Run(func(r *cluster.Rank) error {
			part, _ := ReadWeighted(r, g, tc.strat, tc.speeds)
			if fmt.Sprint(part.Bounds) != fmt.Sprint(tc.want) {
				return fmt.Errorf("bounds %v want %v", part.Bounds, tc.want)
			}
			lo, hi := tc.want[r.ID()], tc.want[r.ID()+1]
			if part.Lo != lo || part.Hi != hi || part.NumOwned() != int(hi-lo) {
				return fmt.Errorf("rank %d owns [%d,%d) (%d), want [%d,%d)",
					r.ID(), part.Lo, part.Hi, part.NumOwned(), lo, hi)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

func TestBuildGhostList(t *testing.T) {
	// Path 0-1-2-3 split at 2: each rank owns two vertices, holds two
	// edges, and one of them (1-2) is cut.
	el := gen.Path(4, 3)
	g := graph.MustBuildCSR(el)
	c := cluster.New(2, testComm())
	_, err := c.Run(func(r *cluster.Rank) error {
		part, _ := Read(r, g)
		cut, w := BuildGhostList(part)
		if cut != 1 {
			return fmt.Errorf("rank %d: cut edges=%d want 1", r.ID(), cut)
		}
		if want := (cost.Work{HashOps: 1, EdgesScanned: 2}); w != want {
			return fmt.Errorf("rank %d: work %+v want %+v", r.ID(), w, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBuildGhostListRandom prices the ghostList on a random graph: every
// rank charges one hash op per edge with exactly one owned endpoint and
// scans every edge of its part.
func TestBuildGhostListRandom(t *testing.T) {
	el := gen.ErdosRenyi(500, 4000, 53)
	g := graph.MustBuildCSR(el)
	const p = 3
	cuts := make([]int, p)
	c := cluster.New(p, testComm())
	_, err := c.Run(func(r *cluster.Rank) error {
		part, _ := Read(r, g)
		var want int64
		for _, e := range el.Edges {
			uIn := e.U >= part.Lo && e.U < part.Hi
			vIn := e.V >= part.Lo && e.V < part.Hi
			if uIn != vIn {
				want++
			}
		}
		cut, w := BuildGhostList(part)
		cuts[r.ID()] = cut
		if int64(cut) != want || w.HashOps != want {
			return fmt.Errorf("rank %d: cut=%d hashOps=%d want %d", r.ID(), cut, w.HashOps, want)
		}
		if want := (cost.Work{HashOps: want, EdgesScanned: int64(len(part.Edges))}); w != want {
			return fmt.Errorf("rank %d: work %+v want %+v", r.ID(), w, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cuts[0] == 0 || cuts[p-1] == 0 {
		t.Fatalf("random graph produced no cut edges: %v", cuts)
	}
}

// TestBuildGhostListForeignEdgePanics: an edge with no owned endpoint is
// a partitioning bug, not a cut edge.
func TestBuildGhostListForeignEdgePanics(t *testing.T) {
	part := &Part{Lo: 0, Hi: 2, Bounds: []int32{0, 2, 4}, Edges: []wire.WEdge{{U: 2, V: 3}}}
	defer func() {
		if recover() == nil {
			t.Fatal("foreign edge did not panic")
		}
	}()
	BuildGhostList(part)
}

// TestReadWeightedMatchesVertexRangeSubgraph: a rank's part holds exactly
// VertexRangeSubgraph's edges of its range, edge for edge and in order,
// on a multigraph with self-loops (internal and on range borders) and
// parallel edges.
func TestReadWeightedMatchesVertexRangeSubgraph(t *testing.T) {
	el := gen.RMAT(256, 3000, 59)
	for i := 0; i < len(el.Edges); i += 37 {
		el.Edges[i].V = el.Edges[i].U // self-loop
	}
	for i := 1; i+1 < len(el.Edges); i += 53 {
		el.Edges[i+1].U, el.Edges[i+1].V = el.Edges[i].V, el.Edges[i].U // reversed parallel edge
	}
	g := graph.MustBuildCSR(el)
	for _, p := range []int{1, 3, 8} {
		for _, strat := range []Strategy{ByDegree, ByVertex} {
			c := cluster.New(p, testComm())
			_, err := c.Run(func(r *cluster.Rank) error {
				part, _ := ReadWeighted(r, g, strat, nil)
				want := graph.VertexRangeSubgraph(g, part.Lo, part.Hi)
				if len(part.Edges) != len(want) {
					return fmt.Errorf("rank %d: %d edges, want %d", r.ID(), len(part.Edges), len(want))
				}
				for i, e := range want {
					if got := part.Edges[i]; got != (wire.WEdge{U: e.U, V: e.V, W: e.W, ID: e.ID}) {
						return fmt.Errorf("rank %d: edge %d is %+v, want %+v", r.ID(), i, got, e)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d strategy %d: %v", p, strat, err)
			}
		}
	}
}
