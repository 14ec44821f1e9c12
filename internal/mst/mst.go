// Package mst holds the repository's one sequential minimum-spanning-forest
// algorithm, a single-threaded filter-Kruskal, and the forest verifier.
// With the distinct edge weights guaranteed by package graph, the MSF is
// unique, so FilterKruskal is exact ground truth for the parallel and
// distributed implementations in the rest of the repository.
package mst

import "slices"

// Forest is a minimum spanning forest: the ids of the chosen edges, their
// total weight, and the number of connected components they span.
type Forest struct {
	EdgeIDs     []int32
	TotalWeight uint64
	Components  int
}

// sortIDs normalizes the edge order so forests compare by value. Edge ids
// are non-negative int32s, so an LSD radix sort over 11-bit digits takes
// at most three passes, and it skips a digit every id shares.
func (f *Forest) sortIDs() {
	const bits, mask = 11, 1<<11 - 1
	ids := f.EdgeIDs
	buf := make([]int32, len(ids))
	for shift := 0; shift < 31 && len(ids) > 1; shift += bits {
		var start [1 << bits]int
		for _, id := range ids {
			start[id>>shift&mask]++
		}
		if start[ids[0]>>shift&mask] == len(ids) {
			continue
		}
		sum := 0
		for d, c := range start {
			start[d] = sum
			sum += c
		}
		for _, id := range ids {
			d := id >> shift & mask
			buf[start[d]] = id
			start[d]++
		}
		ids, buf = buf, ids
	}
	f.EdgeIDs = ids
}

// Equal reports whether two forests choose the same edge set. It leaves
// both operands as they are: every producer returns its ids sorted, and
// an unsorted operand is compared through a sorted copy.
func (f *Forest) Equal(g *Forest) bool {
	return f.TotalWeight == g.TotalWeight && slices.Equal(sortedIDs(f), sortedIDs(g))
}

func sortedIDs(f *Forest) []int32 {
	if slices.IsSorted(f.EdgeIDs) {
		return f.EdgeIDs
	}
	ids := slices.Clone(f.EdgeIDs)
	slices.Sort(ids)
	return ids
}
