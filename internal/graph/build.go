package graph

import (
	"fmt"
	"sync/atomic"

	"mndmst/internal/parutil"
)

// BuildCSR converts an edge list into CSR form. Every undirected edge
// (u,v) yields arcs u->v and v->u (a self-loop yields two identical arcs).
// The conversion uses a parallel count / prefix-sum / scatter pipeline.
func BuildCSR(el *EdgeList) (*CSR, error) {
	if err := el.Validate(); err != nil {
		return nil, err
	}
	n := int(el.N)
	m := len(el.Edges)
	counts := make([]int64, n+1)
	// Count phase: one atomic increment per arc endpoint.
	cnt := make([]atomic.Int64, n)
	parutil.For(m, 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := &el.Edges[i]
			cnt[e.U].Add(1)
			cnt[e.V].Add(1)
		}
	})
	for i := 0; i < n; i++ {
		counts[i+1] = cnt[i].Load()
	}
	// Prefix sum over counts[1..n] leaves offsets in counts[0..n].
	var total int64
	for i := 1; i <= n; i++ {
		total += counts[i]
		counts[i] = total
	}
	g := &CSR{
		N:       el.N,
		M:       int64(m),
		Offsets: counts,
		Dst:     make([]int32, total),
		W:       make([]uint64, total),
		EID:     make([]int32, total),
	}
	// Scatter phase: claim slots with per-vertex cursors.
	cursor := make([]atomic.Int64, n)
	parutil.For(m, 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := &el.Edges[i]
			a := g.Offsets[e.U] + cursor[e.U].Add(1) - 1
			g.Dst[a] = e.V
			g.W[a] = e.W
			g.EID[a] = e.ID
			b := g.Offsets[e.V] + cursor[e.V].Add(1) - 1
			g.Dst[b] = e.U
			g.W[b] = e.W
			g.EID[b] = e.ID
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
