package mst

import (
	"fmt"

	"mndmst/internal/dsu"
	"mndmst/internal/graph"
)

// VerifyForest checks that f is exactly the minimum spanning forest of el:
//
//  1. the chosen edge ids exist, are unique, and contain no self-loops;
//  2. the chosen edges are acyclic (forest property);
//  3. the chosen edges span: |edges| = V − components(G), i.e. adding any
//     non-chosen edge cannot join two forest components that are connected
//     in G but not in F;
//  4. the cut property holds for every chosen edge under distinct weights:
//     no non-chosen edge crosses between the two forest parts created by
//     removing the chosen edge with a smaller weight. (Checked exactly via
//     the path-max property below, which is equivalent and O(E·α) total.)
//
// The cycle/path check uses the standard verification: F is the MSF iff F
// is a spanning forest and every non-tree edge (u,v,w) satisfies
// w > max-weight edge on the F-path between u and v. With distinct weights
// this implies uniqueness, so matching TotalWeight against another verified
// forest is a complete equality check.
func VerifyForest(el *graph.EdgeList, f *Forest) error {
	n := int(el.N)
	chosen := make([]bool, len(el.Edges))
	var sum uint64
	d := dsu.New(n)
	for _, id := range f.EdgeIDs {
		if id < 0 || int(id) >= len(el.Edges) {
			return fmt.Errorf("mst: edge id %d out of range", id)
		}
		if chosen[id] {
			return fmt.Errorf("mst: edge id %d chosen twice", id)
		}
		chosen[id] = true
		e := &el.Edges[id]
		if e.U == e.V {
			return fmt.Errorf("mst: self-loop %d chosen", id)
		}
		if !d.Union(e.U, e.V) {
			return fmt.Errorf("mst: edge %d (%d-%d) creates a cycle", id, e.U, e.V)
		}
		sum += e.W
	}
	if sum != f.TotalWeight {
		return fmt.Errorf("mst: declared weight %d but edges sum to %d", f.TotalWeight, sum)
	}

	// Spanning: no non-chosen edge may join two distinct forest components.
	for i := range el.Edges {
		e := &el.Edges[i]
		if chosen[i] || e.U == e.V {
			continue
		}
		if !d.Same(e.U, e.V) {
			return fmt.Errorf("mst: edge %d (%d-%d) joins unspanned components", e.ID, e.U, e.V)
		}
	}
	if want := n - len(f.EdgeIDs); f.Components != want {
		return fmt.Errorf("mst: declared %d components, edges imply %d", f.Components, want)
	}

	// Minimality via path-max: build the forest adjacency and for every
	// non-tree edge check its weight exceeds the heaviest edge on the tree
	// path between its endpoints. For the graph sizes verified in tests an
	// LCA-free doubling-less walk is enough: root each tree with BFS,
	// record parent edges, and walk both endpoints up, tracking the max.
	parent := make([]int32, n)
	parentW := make([]uint64, n)
	depth := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	// Chosen-edge adjacency, flat: the edge ids at u are adj[off[u]:off[u+1]].
	// off[u] counts u's edges, the scan turns it into u's end, and the
	// fill walks each cursor back to u's start.
	off := make([]int, n+1)
	for _, id := range f.EdgeIDs {
		e := &el.Edges[id]
		off[e.U]++
		off[e.V]++
	}
	for u := 1; u <= n; u++ {
		off[u] += off[u-1]
	}
	adj := make([]int32, 2*len(f.EdgeIDs))
	for _, id := range f.EdgeIDs {
		e := &el.Edges[id]
		off[e.U]--
		adj[off[e.U]] = id
		off[e.V]--
		adj[off[e.V]] = id
	}
	seen := make([]bool, n)
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, id := range adj[off[u]:off[u+1]] {
				e := &el.Edges[id]
				v := e.U
				if v == u {
					v = e.V
				}
				if seen[v] {
					continue
				}
				seen[v] = true
				parent[v] = u
				parentW[v] = e.W
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	pathMax := func(u, v int32) uint64 {
		var m uint64
		for depth[u] > depth[v] {
			if parentW[u] > m {
				m = parentW[u]
			}
			u = parent[u]
		}
		for depth[v] > depth[u] {
			if parentW[v] > m {
				m = parentW[v]
			}
			v = parent[v]
		}
		for u != v {
			if parentW[u] > m {
				m = parentW[u]
			}
			if parentW[v] > m {
				m = parentW[v]
			}
			u, v = parent[u], parent[v]
		}
		return m
	}
	for i := range el.Edges {
		e := &el.Edges[i]
		if chosen[i] || e.U == e.V {
			continue
		}
		if m := pathMax(e.U, e.V); graph.WeightLess(e.W, m) {
			return fmt.Errorf("mst: non-tree edge %d (w=%d) lighter than path max %d — not minimal", e.ID, e.W, m)
		}
	}
	return nil
}
