// Package merge implements the data-reduction and hierarchical-merging
// machinery of §3.3/§3.4: self-edge removal, ghost parent-id exchange,
// multi-edge removal through one map per call, component segment
// formation, ring-based segment exchange within groups, and the transfer
// encoding used when components move between ranks.
//
// Component ids are global vertex ids (the minimum original vertex id in
// the component), so they remain globally unique across every merge level.
// The packages maintains one invariant throughout: an edge record lives at
// exactly the ranks that own one of its endpoint components, and endpoint
// labels are refreshed by a parent-delta exchange after every merge round,
// so no rank ever computes with stale component ids.
package merge

import (
	"cmp"
	"math"
	"slices"

	"mndmst/internal/cost"
	"mndmst/internal/graph"
	"mndmst/internal/wire"
)

// Relabel rewrites edge endpoints through the parent function and drops
// self edges (both endpoints in the same component) in place, returning the
// surviving edges, the number of self edges removed, and the work
// performed. The input slice is reused.
func Relabel(edges []wire.WEdge, parentOf func(int32) int32) (kept []wire.WEdge, selfEdges int, w cost.Work) {
	out := edges[:0]
	for i := range edges {
		e := edges[i]
		e.U = parentOf(e.U)
		e.V = parentOf(e.V)
		if e.U == e.V {
			selfEdges++
			continue
		}
		out = append(out, e)
	}
	w.EdgesScanned = int64(len(edges))
	return out, selfEdges, w
}

// RemoveMultiEdges keeps only the lightest edge between every pair of
// components — the multi-edge removal of §3.3 — with endpoints put in
// canonical U < V order. Equal weights go to the lower edge id, so each
// pair's survivor does not depend on the input order. One plain map from
// the canonical pair to the survivor's output slot does the removal, and
// only the survivors are sorted, by (U, V). The input slice is reused. The
// work is priced as the paper's hash table: one hash operation per edge.
func RemoveMultiEdges(edges []wire.WEdge) ([]wire.WEdge, cost.Work) {
	n := len(edges)
	slot := make(map[uint64]int32)
	out := edges[:0]
	for _, e := range edges {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		k := uint64(uint32(e.U))<<32 | uint64(uint32(e.V))
		i, ok := slot[k]
		switch {
		case !ok:
			slot[k] = int32(len(out))
			out = append(out, e)
		case graph.WeightLess(e.W, out[i].W) || !graph.WeightLess(out[i].W, e.W) && e.ID < out[i].ID:
			out[i] = e
		}
	}
	slices.SortFunc(out, func(a, b wire.WEdge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	return out, cost.Work{HashOps: int64(n), EdgesScanned: int64(n)}
}

// DedupeByID removes duplicate copies of the same original edge (same ID),
// which appear when both endpoint owners ship their copy to one rank. The
// result is sorted by ID.
func DedupeByID(edges []wire.WEdge) []wire.WEdge {
	slices.SortFunc(edges, func(a, b wire.WEdge) int { return cmp.Compare(a.ID, b.ID) })
	out := edges[:0]
	for i := range edges {
		if i > 0 && edges[i].ID == edges[i-1].ID {
			continue
		}
		out = append(out, edges[i])
	}
	return out
}

// Delta is one parent update: component Old merged into component New.
type Delta struct{ Old, New int32 }

// DeltasFromParents extracts the parent updates a merge round produced:
// every id whose parent differs from itself. ids and parents correspond
// positionally (the boruvka kernel's Local.IDs and Result.Parent). The
// result is sorted by Old.
func DeltasFromParents(ids, parents []int32) []Delta {
	var ds []Delta
	for i, id := range ids {
		if parents[i] != id {
			ds = append(ds, Delta{Old: id, New: parents[i]})
		}
	}
	slices.SortFunc(ds, func(a, b Delta) int { return cmp.Compare(a.Old, b.Old) })
	return ds
}

// Representatives applies the parent function to a component list and
// returns the sorted unique representatives — the components still owned
// after a merge round (every merge happens at the owning rank, so a merged
// cluster's representative is always local).
func Representatives(owned []int32, pf func(int32) int32) []int32 {
	out := make([]int32, len(owned))
	for i, c := range owned {
		out[i] = pf(c)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ApplyDeltas builds a parent function from local and remote deltas over a
// base identity. Chains cannot occur within one round (each rank maps old
// ids directly to final representatives), so a single lookup suffices: a
// window over the span of the Old ids, identity outside it.
func ApplyDeltas(all ...[]Delta) func(int32) int32 {
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	for _, ds := range all {
		for _, d := range ds {
			lo, hi = min(lo, d.Old), max(hi, d.Old)
		}
	}
	w := newWindow[int32](lo, hi)
	for k := range w.vals {
		w.vals[k] = lo + int32(k)
	}
	for _, ds := range all {
		for _, d := range ds {
			w.vals[w.slot(d.Old)] = d.New
		}
	}
	return func(v int32) int32 {
		if k := w.slot(v); k >= 0 {
			return w.vals[k]
		}
		return v
	}
}
