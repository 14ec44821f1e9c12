// Package partition implements the distributed graph partitioning of §3.1:
// a Gemini-style parallel read where every rank computes the degrees of a
// provisional vertex slice, the ranks allreduce the degree vector, and each
// derives the same contiguous 1D partition balanced by edge count. The
// package also prices the per-rank ghostList of cut edges; the
// within-node CPU/GPU split of §3.1 ¶2 lives in hypar.
package partition

import (
	"fmt"
	"sort"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/graph"
	"mndmst/internal/wire"
)

// Part is one rank's share of the graph: the owned contiguous vertex range
// and every edge with at least one owned endpoint (cut edges appear in both
// endpoint owners' parts).
type Part struct {
	Lo, Hi int32
	Edges  []wire.WEdge
	// Bounds are the global partition boundaries (len P+1), identical on
	// every rank; OwnerOf lookups use them.
	Bounds []int32
}

// NumOwned reports the number of owned vertices.
func (p *Part) NumOwned() int { return int(p.Hi - p.Lo) }

// OwnerOf locates v's owner by binary search over the shared bounds.
func OwnerOf(bounds []int32, v int32) int {
	// bounds[i] <= v < bounds[i+1]
	i := sort.Search(len(bounds)-1, func(i int) bool { return bounds[i+1] > v })
	return i
}

// BalancedBounds computes contiguous boundaries over n vertices such that
// the per-rank sums of degrees are near-balanced (the paper's 1D
// partitioning "based on the degrees ... to balance the number of edges
// across computing units").
func BalancedBounds(degrees []int64, p int) []int32 {
	n := len(degrees)
	var total int64
	for _, d := range degrees {
		total += d
	}
	bounds := make([]int32, p+1)
	bounds[p] = int32(n)
	var run int64
	next := 1
	for v := 0; v < n && next < p; v++ {
		run += degrees[v]
		// Close partition `next-1` once it holds its proportional share.
		for next < p && run >= total*int64(next)/int64(p) {
			bounds[next] = int32(v + 1)
			next++
		}
	}
	for ; next < p; next++ {
		bounds[next] = int32(n)
	}
	return bounds
}

// WeightedBounds computes contiguous boundaries such that rank i's share
// of the total degree mass is proportional to weights[i] — the
// heterogeneous-cluster generalization of BalancedBounds.
func WeightedBounds(degrees []int64, weights []float64) []int32 {
	p := len(weights)
	n := len(degrees)
	var total int64
	for _, d := range degrees {
		total += d
	}
	var wsum float64
	for _, w := range weights {
		if w > 0 {
			wsum += w
		} else {
			wsum += 1
		}
	}
	bounds := make([]int32, p+1)
	bounds[p] = int32(n)
	var run int64
	var acc float64
	next := 1
	for v := 0; v < n && next < p; v++ {
		run += degrees[v]
		for next < p {
			w := weights[next-1]
			if w <= 0 {
				w = 1
			}
			target := acc + w
			if float64(run) < float64(total)*target/wsum {
				break
			}
			bounds[next] = int32(v + 1)
			acc = target
			next++
		}
	}
	for ; next < p; next++ {
		bounds[next] = int32(n)
	}
	return bounds
}

// Strategy selects the 1D partitioning rule.
type Strategy int

const (
	// ByDegree is the Gemini-style edge-balanced partitioning of §3.1.
	ByDegree Strategy = iota
	// ByVertex is the naive equal-vertex-count split, kept as the
	// baseline the degree-balanced strategy improves on (hub partitions
	// become edge-heavy under it).
	ByVertex
)

// Read performs the distributed partitioning on the calling rank: it
// computes the degrees of its provisional slice, allreduces the full degree
// vector (as Gemini does after the parallel file read), derives the
// balanced bounds, and extracts its part. The returned work covers the
// local degree computation and edge extraction; the caller charges it to
// its device model. All ranks must call Read collectively with the same
// graph.
func Read(r *cluster.Rank, g *graph.CSR) (*Part, cost.Work) {
	return ReadWeighted(r, g, ByDegree, nil)
}

// ReadWeighted is Read with an explicit partitioning strategy and optional
// per-rank speed weights for heterogeneous clusters: faster ranks receive
// proportionally more degree mass.
func ReadWeighted(r *cluster.Rank, g *graph.CSR, strat Strategy, speeds []float64) (*Part, cost.Work) {
	var w cost.Work
	p := r.P()
	n := int(g.N)
	// Provisional equal-vertex slice, as if each rank read a byte range of
	// the input file.
	plo := int32(r.ID() * n / p)
	phi := int32((r.ID() + 1) * n / p)
	local := make([]int64, n)
	for v := plo; v < phi; v++ {
		local[v] = g.Degree(v)
	}
	w.VerticesProcessed += int64(phi - plo)

	degrees := r.Allreduce(local, cluster.OpSum)
	var bounds []int32
	switch {
	case strat == ByVertex:
		bounds = make([]int32, p+1)
		for i := 0; i <= p; i++ {
			bounds[i] = int32(i * n / p)
		}
	case len(speeds) == p:
		bounds = WeightedBounds(degrees, speeds)
	default:
		bounds = BalancedBounds(degrees, p)
	}

	lo, hi := bounds[r.ID()], bounds[r.ID()+1]
	edges := graph.VertexRangeEdges(g, lo, hi, func(u int32, a int64) wire.WEdge {
		return wire.WEdge{U: u, V: g.Dst[a], W: g.W[a], ID: g.EID[a]}
	})
	w.EdgesScanned += int64(len(edges))
	return &Part{Lo: lo, Hi: hi, Bounds: bounds, Edges: edges}, w
}

// BuildGhostList prices the per-rank ghostList of §3.1 without building
// it: the merge step derives its own boundary set, so nothing reads the
// list, but the cost model still charges the hash insert that files each
// cut edge under its ghost endpoint's owner. It returns the number of cut
// edges (exactly one owned endpoint) and that work.
func BuildGhostList(part *Part) (cutEdges int, w cost.Work) {
	for _, e := range part.Edges {
		uIn := e.U >= part.Lo && e.U < part.Hi
		vIn := e.V >= part.Lo && e.V < part.Hi
		if !uIn && !vIn {
			panic(fmt.Sprintf("partition: edge %d (%d-%d) not owned by [%d,%d)", e.ID, e.U, e.V, part.Lo, part.Hi))
		}
		if uIn != vIn {
			cutEdges++
		}
	}
	return cutEdges, cost.Work{HashOps: int64(cutEdges), EdgesScanned: int64(len(part.Edges))}
}
