package graph

import (
	"runtime"
	"slices"
	"testing"

	"mndmst/internal/parutil"
	"mndmst/internal/testutil"
)

// referenceCSR is the single-thread build the parallel one must equal:
// each edge, in list order, appends its arc at U and then at V.
func referenceCSR(el *EdgeList) *CSR {
	type arc struct {
		dst, eid int32
		w        uint64
	}
	adj := make([][]arc, el.N)
	for _, e := range el.Edges {
		adj[e.U] = append(adj[e.U], arc{e.V, e.ID, e.W})
		adj[e.V] = append(adj[e.V], arc{e.U, e.ID, e.W})
	}
	g := &CSR{N: el.N, M: int64(len(el.Edges)), Offsets: make([]int64, el.N+1)}
	for u, as := range adj {
		for _, a := range as {
			g.Dst = append(g.Dst, a.dst)
			g.EID = append(g.EID, a.eid)
			g.W = append(g.W, a.w)
		}
		g.Offsets[u+1] = int64(len(g.Dst))
	}
	return g
}

func sameCSR(a, b *CSR) bool {
	return a.N == b.N && a.M == b.M && slices.Equal(a.Offsets, b.Offsets) &&
		slices.Equal(a.Dst, b.Dst) && slices.Equal(a.W, b.W) && slices.Equal(a.EID, b.EID)
}

// TestBuildCSRDeterministic builds one 200k-edge multigraph with
// self-loops and parallel edges under every combination of GOMAXPROCS and
// worker budget. Every build must equal the single-thread reference
// array for array: the arcs of each vertex in ascending edge id, a
// self-loop's two arcs adjacent.
func TestBuildCSRDeterministic(t *testing.T) {
	rng := testutil.Rand(t, 17)
	// 5000 vertices at average degree 80 give thousands of parallel
	// pairs; every 1000th edge is forced into a self-loop.
	el := randomEdgeList(rng, 5000, 200_000)
	for i := 0; i < len(el.Edges); i += 1000 {
		el.Edges[i].V = el.Edges[i].U
	}
	want := referenceCSR(el)
	for u := int32(0); u < want.N; u++ {
		lo, hi := want.Arcs(u)
		for a := lo + 1; a < hi; a++ {
			if want.EID[a-1] > want.EID[a] || (want.EID[a-1] == want.EID[a] && want.Dst[a] != u) {
				t.Fatalf("reference arcs of %d out of edge-id order", u)
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer parutil.SetMaxWorkers(parutil.SetMaxWorkers(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{0, 1, 2, 8} { // 0: GOMAXPROCS
			parutil.SetMaxWorkers(workers)
			for rep := 0; rep < 3; rep++ {
				if got := MustBuildCSR(el); !sameCSR(got, want) {
					t.Fatalf("GOMAXPROCS=%d workers=%d rep %d: CSR differs from the single-thread build", procs, workers, rep)
				}
			}
		}
	}
}

// TestVertexRangeSubgraphReference checks the range extraction against a
// reference computed from the edge list alone: every edge with an
// endpoint in [lo, hi), emitted from its smaller inside endpoint (a
// self-loop once), ordered by that endpoint and then by edge id.
func TestVertexRangeSubgraphReference(t *testing.T) {
	rng := testutil.Rand(t, 23)
	el := randomEdgeList(rng, 40, 600) // dense: many parallel edges
	for i := 0; i < len(el.Edges); i += 9 {
		el.Edges[i].V = el.Edges[i].U
	}
	g := MustBuildCSR(el)
	for _, r := range [][2]int32{{0, 40}, {0, 13}, {13, 14}, {14, 33}, {33, 40}, {20, 20}} {
		lo, hi := r[0], r[1]
		in := func(v int32) bool { return v >= lo && v < hi }
		var want []Edge
		for _, e := range el.Edges {
			switch {
			case in(e.U) && (!in(e.V) || e.U <= e.V):
				want = append(want, e)
			case in(e.V):
				want = append(want, Edge{U: e.V, V: e.U, W: e.W, ID: e.ID})
			}
		}
		slices.SortStableFunc(want, func(a, b Edge) int { return int(a.U) - int(b.U) })
		if got := VertexRangeSubgraph(g, lo, hi); !slices.Equal(got, want) {
			t.Fatalf("[%d,%d): got %d edges %v\nwant %d edges %v", lo, hi, len(got), got, len(want), want)
		}
	}
}
