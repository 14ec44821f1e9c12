package merge

import (
	"fmt"
	"math"
	"testing"

	"mndmst/internal/wire"
)

// TestApplyDeltasWindowIdentity: ids outside the window over the Old ids,
// and ids inside it that no delta names, map to themselves.
func TestApplyDeltasWindowIdentity(t *testing.T) {
	pf := ApplyDeltas([]Delta{{Old: 12, New: 3}}, []Delta{{Old: 10, New: 4}}, nil)
	want := map[int32]int32{
		10: 4, 12: 3, // the deltas
		11: 11, // inside the window, no delta
		9:  9, 13: 13, 0: 0, -1: -1, math.MinInt32: math.MinInt32, math.MaxInt32: math.MaxInt32,
	}
	for v, p := range want {
		if got := pf(v); got != p {
			t.Fatalf("pf(%d) = %d, want %d", v, got, p)
		}
	}
	id := ApplyDeltas()
	for _, v := range []int32{math.MinInt32, -1, 0, 7, math.MaxInt32} {
		if id(v) != v {
			t.Fatalf("no deltas: pf(%d) = %d", v, id(v))
		}
	}
}

// TestBoundaryDeltas keeps exactly the deltas of owned components that
// touch a cut edge, whichever side of the edge the ghost is on.
func TestBoundaryDeltas(t *testing.T) {
	owned := []int32{10, 12, 20, 30}
	edges := []wire.WEdge{
		{U: 10, V: 12, ID: 0}, // internal
		{U: 5, V: 20, ID: 1},  // ghost below the window
		{U: 30, V: 15, ID: 2}, // ghost inside the window
		{U: 12, V: 20, ID: 3}, // internal
	}
	deltas := []Delta{{Old: 10, New: 10}, {Old: 12, New: 10}, {Old: 20, New: 12}, {Old: 30, New: 20}}
	got := BoundaryDeltas(owned, edges, deltas)
	if fmt.Sprint(got) != "[{20 12} {30 20}]" {
		t.Fatalf("boundary deltas %v, want [{20 12} {30 20}]", got)
	}
	if got := BoundaryDeltas(nil, nil, nil); len(got) != 0 {
		t.Fatalf("empty rank sends %v", got)
	}
}

func TestRepresentativesSortedUnique(t *testing.T) {
	pf := ApplyDeltas([]Delta{{Old: 9, New: 2}, {Old: 5, New: 2}, {Old: 7, New: 1}})
	if got := fmt.Sprint(Representatives([]int32{1, 2, 5, 7, 9, 11}, pf)); got != "[1 2 11]" {
		t.Fatalf("representatives %s, want [1 2 11]", got)
	}
}
