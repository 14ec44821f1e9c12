package mst

import (
	"container/heap"
	"sort"

	"mndmst/internal/dsu"
	"mndmst/internal/graph"
)

// This file holds the cross-check references for FilterKruskal: plain
// Kruskal, lazy-heap Prim and sequential Boruvka. They are structurally
// different algorithms, so a forest all of them agree on is trustworthy.

// Kruskal computes the MSF by sorting all edges and greedily joining
// components.
func Kruskal(el *graph.EdgeList) *Forest {
	order := make([]int32, len(el.Edges))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		return graph.WeightLess(el.Edges[order[i]].W, el.Edges[order[j]].W)
	})
	d := dsu.New(int(el.N))
	f := &Forest{}
	for _, i := range order {
		e := &el.Edges[i]
		if e.U == e.V {
			continue
		}
		if d.Union(e.U, e.V) {
			f.EdgeIDs = append(f.EdgeIDs, e.ID)
			f.TotalWeight += e.W
			if len(f.EdgeIDs) == int(el.N)-1 {
				break
			}
		}
	}
	f.Components = int(el.N) - len(f.EdgeIDs)
	f.sortIDs()
	return f
}

// primItem is a heap entry: a candidate arc into the tree.
type primItem struct {
	w   uint64
	arc int64
	to  int32
}

type primHeap []primItem

func (h primHeap) Len() int            { return len(h) }
func (h primHeap) Less(i, j int) bool  { return graph.WeightLess(h[i].w, h[j].w) }
func (h primHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *primHeap) Push(x interface{}) { *h = append(*h, x.(primItem)) }
func (h *primHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Prim computes the MSF with a lazy binary-heap Prim from every unvisited
// vertex (restarting per component).
func Prim(g *graph.CSR) *Forest {
	visited := make([]bool, g.N)
	f := &Forest{}
	var h primHeap
	for s := int32(0); s < g.N; s++ {
		if visited[s] {
			continue
		}
		f.Components++
		visited[s] = true
		pushArcs(g, s, visited, &h)
		for h.Len() > 0 {
			it := heap.Pop(&h).(primItem)
			if visited[it.to] {
				continue
			}
			visited[it.to] = true
			f.EdgeIDs = append(f.EdgeIDs, g.EID[it.arc])
			f.TotalWeight += it.w
			pushArcs(g, it.to, visited, &h)
		}
	}
	f.sortIDs()
	return f
}

func pushArcs(g *graph.CSR, u int32, visited []bool, h *primHeap) {
	lo, hi := g.Arcs(u)
	for a := lo; a < hi; a++ {
		if !visited[g.Dst[a]] {
			heap.Push(h, primItem{w: g.W[a], arc: a, to: g.Dst[a]})
		}
	}
}

// Boruvka computes the MSF with the classic sequential Boruvka iteration:
// per round, every component selects its lightest outgoing edge, then the
// selected edges are contracted.
func Boruvka(el *graph.EdgeList) *Forest {
	n := int(el.N)
	d := dsu.New(n)
	f := &Forest{}
	best := make([]int32, n) // per-root best edge index, -1 if none
	for {
		for i := range best {
			best[i] = -1
		}
		found := false
		for i := range el.Edges {
			e := &el.Edges[i]
			ru, rv := d.Find(e.U), d.Find(e.V)
			if ru == rv {
				continue
			}
			found = true
			for _, r := range [2]int32{ru, rv} {
				if best[r] < 0 || graph.WeightLess(e.W, el.Edges[best[r]].W) {
					best[r] = int32(i)
				}
			}
		}
		if !found {
			break
		}
		for _, bi := range best {
			if bi < 0 {
				continue
			}
			e := &el.Edges[bi]
			if d.Union(e.U, e.V) {
				f.EdgeIDs = append(f.EdgeIDs, e.ID)
				f.TotalWeight += e.W
			}
		}
	}
	f.Components = n - len(f.EdgeIDs)
	f.sortIDs()
	return f
}
