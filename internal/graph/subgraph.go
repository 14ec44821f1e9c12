package graph

import "math/rand"

// InducedSubgraph builds the subgraph induced by the given vertex set.
// Vertices are renumbered 0..len(verts)-1 in the order given; edges keep
// their weights but receive fresh ids. Duplicate vertices in verts are an
// error surfaced through Validate on the result.
func InducedSubgraph(g *CSR, verts []int32) *EdgeList {
	remap := make(map[int32]int32, len(verts))
	for i, v := range verts {
		remap[v] = int32(i)
	}
	el := &EdgeList{N: int32(len(verts))}
	for _, u := range verts {
		nu := remap[u]
		lo, hi := g.Arcs(u)
		for a := lo; a < hi; a++ {
			v := g.Dst[a]
			nv, ok := remap[v]
			if !ok {
				continue
			}
			if u == v {
				if a > lo && g.EID[a-1] == g.EID[a] {
					continue // a self-loop's second arc follows its first
				}
			} else if nu > nv {
				continue // emit each proper edge once, from the smaller new id
			}
			el.Edges = append(el.Edges, Edge{U: nu, V: nv, W: g.W[a], ID: int32(len(el.Edges))})
		}
	}
	return el
}

// SampleInducedSubgraph draws a uniform random vertex sample of the given
// fraction (clamped to [0,1]) and returns the induced subgraph, as used by
// the HyPar runtime to estimate the CPU:GPU performance ratio (§4.3.1).
func SampleInducedSubgraph(g *CSR, fraction float64, rng *rand.Rand) *EdgeList {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	k := int(float64(g.N) * fraction)
	if k < 1 && g.N > 0 {
		k = 1
	}
	perm := rng.Perm(int(g.N))
	verts := make([]int32, k)
	for i := 0; i < k; i++ {
		verts[i] = int32(perm[i])
	}
	return InducedSubgraph(g, verts)
}

// VertexRangeSubgraph extracts the edge list of the partition [lo, hi):
// all undirected edges with at least one endpoint inside the range. Edges
// keep ORIGINAL vertex ids and ORIGINAL edge ids — this is the partition
// view used by the distributed algorithm, where ghost endpoints remain
// globally named. Edges whose both endpoints fall inside are emitted once;
// cut edges (one endpoint outside) are emitted once as well, from the
// inside endpoint.
func VertexRangeSubgraph(g *CSR, lo, hi int32) []Edge {
	return VertexRangeEdges(g, lo, hi, func(u int32, a int64) Edge {
		return Edge{U: u, V: g.Dst[a], W: g.W[a], ID: g.EID[a]}
	})
}

// VertexRangeEdges is VertexRangeSubgraph with the record type left to
// the caller: edge(u, a) builds the record of the edge that arc a of
// vertex u carries. It counts the range's edges first and fills one
// exactly sized slice, in VertexRangeSubgraph's order.
func VertexRangeEdges[E any](g *CSR, lo, hi int32, edge func(u int32, a int64) E) []E {
	off, dst, eid := g.Offsets, g.Dst, g.EID
	count := 0
	for u := lo; u < hi; u++ {
		first, last := off[u], off[u+1]
		for a := first; a < last; a++ {
			if carries(dst, eid, u, a, first, lo) {
				count++
			}
		}
	}
	// Every arc writes the next slot, which only a carrying arc keeps:
	// no branch on the (unpredictable) carry test.
	out := make([]E, count+1)
	i := 0
	for u := lo; u < hi; u++ {
		first, last := off[u], off[u+1]
		for a := first; a < last; a++ {
			out[i] = edge(u, a)
			if carries(dst, eid, u, a, first, lo) {
				i++
			}
		}
	}
	return out[:count:count]
}

// carries reports whether arc a of vertex u in [lo, hi), whose arcs
// start at first, is the arc that represents its edge in the range's edge
// list: the first of a self-loop's two adjacent arcs, and otherwise every
// arc but one from u back to an inside vertex below u — the inside arc of
// a cut edge and the arc from the smaller endpoint of an internal edge.
func carries(dst, eid []int32, u int32, a, first int64, lo int32) bool {
	v := dst[a]
	if v == u {
		return a == first || eid[a-1] != eid[a]
	}
	// One unsigned comparison tests lo <= v < u: v below lo wraps high.
	return uint32(v-lo) >= uint32(u-lo)
}
