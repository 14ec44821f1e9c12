package serve

import (
	"math"
	"reflect"
	"testing"
)

// TestPackForestRoundTrip: packed forests decode to exactly the input,
// nil and empty included, and an ascending forest costs about a byte per
// edge.
func TestPackForestRoundTrip(t *testing.T) {
	dense := make([]int32, 10_000)
	for i := range dense {
		dense[i] = int32(3*i + i%2)
	}
	for _, ids := range [][]int32{
		nil,
		{},
		{0},
		{5, 6, 200, 70_000, math.MaxInt32},
		{9, 3, -4, math.MinInt32, 0}, // unsorted and negative still round-trip
		dense,
	} {
		b := packForest(ids)
		if got := unpackForest(b, len(ids)); !reflect.DeepEqual(got, ids) {
			t.Fatalf("round trip of %v gave %v", ids, got)
		}
	}
	if b := packForest(dense); len(b) != len(dense) || cap(b) != len(dense) {
		t.Fatalf("dense forest of %d edges packed into len %d cap %d bytes, want %d", len(dense), len(b), cap(b), len(dense))
	}
}
