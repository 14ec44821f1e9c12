package graph

import (
	"fmt"

	"mndmst/internal/parutil"
)

// csrChunkEdges is the fewest edges worth a chunk of their own in the
// parallel CSR build; smaller edge lists build in one chunk.
const csrChunkEdges = 1 << 15

// BuildCSR converts an edge list into CSR form. Every undirected edge
// (u,v) yields arcs u->v and v->u; a self-loop yields two identical,
// adjacent arcs. The build is a stable counting sort: the arcs of every
// vertex appear in ascending edge id, so the result is the same for any
// worker count and any goroutine schedule.
//
// The edge list is cut into contiguous chunks, one per worker. Each chunk
// counts its arcs per vertex; one exclusive scan in (vertex, chunk) order
// turns those counts into per-chunk write cursors, so chunk c writes its
// arcs of v after those of every earlier chunk, without atomics.
func BuildCSR(el *EdgeList) (*CSR, error) {
	if err := el.Validate(); err != nil {
		return nil, err
	}
	n := int(el.N)
	m := len(el.Edges)
	k := min(parutil.MaxWorkers(), (m+csrChunkEdges-1)/csrChunkEdges)
	if k < 1 {
		k = 1
	}
	// cur[c*n+v] is chunk c's arc count at v, then its next write slot.
	// Slots fit int32: a graph has at most 2*MaxEdges arcs.
	cur := make([]int32, k*n)
	chunks := func(fn func(cur []int32, edges []Edge)) {
		parutil.For(k, 1, func(lo, hi int) {
			for c := lo; c < hi; c++ {
				fn(cur[c*n:(c+1)*n], el.Edges[c*m/k:(c+1)*m/k])
			}
		})
	}
	chunks(func(cur []int32, edges []Edge) {
		for i := range edges {
			cur[edges[i].U]++
			cur[edges[i].V]++
		}
	})
	offsets := make([]int64, n+1)
	var total int32
	for v := 0; v < n; v++ {
		offsets[v] = int64(total)
		for c := v; c < k*n; c += n {
			cnt := cur[c]
			cur[c] = total
			total += cnt
		}
	}
	offsets[n] = int64(total)
	g := &CSR{
		N:       el.N,
		M:       int64(m),
		Offsets: offsets,
		Dst:     make([]int32, total),
		W:       make([]uint64, total),
		EID:     make([]int32, total),
	}
	chunks(func(cur []int32, edges []Edge) {
		for i := range edges {
			e := &edges[i]
			a := cur[e.U]
			cur[e.U]++
			g.Dst[a], g.W[a], g.EID[a] = e.V, e.W, e.ID
			b := cur[e.V]
			cur[e.V]++
			g.Dst[b], g.W[b], g.EID[b] = e.U, e.W, e.ID
		}
	})
	return g, nil
}

// MustBuildCSR is BuildCSR for known-good inputs (generators, tests); it
// panics on invalid input.
func MustBuildCSR(el *EdgeList) *CSR {
	g, err := BuildCSR(el)
	if err != nil {
		panic(fmt.Sprintf("graph: MustBuildCSR: %v", err))
	}
	return g
}

// TotalWeight sums all edge weights of the list.
func (el *EdgeList) TotalWeight() uint64 {
	var s uint64
	for _, e := range el.Edges {
		s += e.W
	}
	return s
}
