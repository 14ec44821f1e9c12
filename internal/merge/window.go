package merge

import (
	"math"

	"mndmst/internal/wire"
)

// window is a dense table over the component ids [lo, lo+len(vals)): the
// map-free lookup the merge step uses for component sets and parent
// functions. Component ids are global vertex ids, so a rank's window is
// never wider than the graph's vertex range.
type window[T any] struct {
	lo   int32
	vals []T
}

// newWindow covers the ids [lo, hi] with zero values; it is empty when
// lo > hi.
func newWindow[T any](lo, hi int32) window[T] {
	if lo > hi {
		return window[T]{}
	}
	return window[T]{lo: lo, vals: make([]T, int(hi)-int(lo)+1)}
}

// span returns the smallest and largest id of ascending lists, with
// lo > hi when every list is empty.
func span(sorted ...[]int32) (lo, hi int32) {
	lo, hi = math.MaxInt32, math.MinInt32
	for _, s := range sorted {
		if len(s) > 0 {
			lo, hi = min(lo, s[0]), max(hi, s[len(s)-1])
		}
	}
	return lo, hi
}

// slot returns v's position in the window, or -1 outside it. An id below
// lo wraps to a huge unsigned offset, so one comparison rejects ids on
// either side.
func (w window[T]) slot(v int32) int {
	if k := uint64(int64(v) - int64(w.lo)); k < uint64(len(w.vals)) {
		return int(k)
	}
	return -1
}

// at reads v's entry: the zero value outside the window.
func (w window[T]) at(v int32) (t T) {
	if k := w.slot(v); k >= 0 {
		t = w.vals[k]
	}
	return t
}

// mark sets the entry of every id in ids, which must lie in the window.
func (w window[T]) mark(ids []int32, t T) {
	for _, c := range ids {
		w.vals[w.slot(c)] = t
	}
}

// Component tags in a window[uint8]; zero means not a member.
const (
	tagKept uint8 = 1 + iota
	tagSent
	tagOwned
	tagBoundary
)

// BoundaryDeltas keeps the deltas of boundary components: owned
// components that are an endpoint of a cut edge, one whose other
// endpoint is not owned. Only those matter to other ranks: a peer holds a
// copy of one of our edges only if it is a cut edge, and the label it
// knows is the cut edge's owned endpoint (§3.3's ghost-vertex exchange).
// owned must be sorted ascending.
func BoundaryDeltas(owned []int32, edges []wire.WEdge, deltas []Delta) []Delta {
	w := newWindow[uint8](span(owned))
	w.mark(owned, tagOwned)
	for _, e := range edges {
		ku, kv := w.slot(e.U), w.slot(e.V)
		switch {
		case ku < 0 || w.vals[ku] == 0:
			if kv >= 0 && w.vals[kv] != 0 {
				w.vals[kv] = tagBoundary
			}
		case kv < 0 || w.vals[kv] == 0:
			w.vals[ku] = tagBoundary
		}
	}
	out := deltas[:0:0]
	for _, d := range deltas {
		if w.at(d.Old) == tagBoundary {
			out = append(out, d)
		}
	}
	return out
}
