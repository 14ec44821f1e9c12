package merge

import "mndmst/internal/wire"

// SplitEdges divides a rank's edge list when the components in sent move
// away. Every edge incident to a sent component travels with the payload;
// every edge incident to a kept owned component stays. An edge between a
// kept and a sent component does both — the invariant is that an edge copy
// lives at each rank owning one of its endpoints. kept and sent must be
// sorted ascending and disjoint.
func SplitEdges(edges []wire.WEdge, kept, sent []int32) (keptEdges, movedEdges []wire.WEdge) {
	w := newWindow[uint8](span(kept, sent))
	w.mark(kept, tagKept)
	w.mark(sent, tagSent)
	for _, e := range edges {
		tu, tv := w.at(e.U), w.at(e.V)
		if tu == tagSent || tv == tagSent {
			movedEdges = append(movedEdges, e)
		}
		if tu == tagKept || tv == tagKept {
			keptEdges = append(keptEdges, e)
		}
	}
	return keptEdges, movedEdges
}

// ToSet builds a membership set from a component list. The merge step
// itself uses dense windows (BoundaryDeltas, SplitEdges); ToSet serves
// callers that want a plain set.
func ToSet(comps []int32) map[int32]bool {
	m := make(map[int32]bool, len(comps))
	for _, c := range comps {
		m[c] = true
	}
	return m
}
