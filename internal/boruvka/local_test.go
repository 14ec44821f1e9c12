package boruvka

import (
	"fmt"
	"math"
	"testing"

	"mndmst/internal/wire"
)

// TestLocalWindowIndex covers the dense index over gapped ids, as in a
// merge stage where the local vertices are component ids: ghosts below,
// inside and above the window all map to -1, and an id below IDs[0]
// takes the unsigned-wrap path.
func TestLocalWindowIndex(t *testing.T) {
	ids := []int32{40, 10, 21, 20} // sorted in place by NewLocal
	edges := []wire.WEdge{
		{U: 10, V: 20, W: 1, ID: 0},
		{U: 20, V: 15, W: 2, ID: 1},  // ghost inside the window
		{U: 5, V: 21, W: 3, ID: 2},   // ghost below the window
		{U: 40, V: 100, W: 4, ID: 3}, // ghost above the window
		{U: 21, V: 21, W: 5, ID: 4},  // local self-loop: one arc
		{U: 40, V: 10, W: 6, ID: 5},
	}
	l, err := NewLocal(ids, edges)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int32{10, 20, 21, 40} {
		if l.IDs[i] != want {
			t.Fatalf("IDs = %v, want sorted", l.IDs)
		}
		if got := l.index(want); got != int32(i) {
			t.Fatalf("index(%d) = %d, want %d", want, got, i)
		}
	}
	for _, ghost := range []int32{9, 0, -1, math.MinInt32, 15, 11, 39, 41, 100, math.MaxInt32} {
		if got := l.index(ghost); got != -1 {
			t.Fatalf("index(%d) = %d, want -1 (ghost)", ghost, got)
		}
	}
	// Arcs: 10:{20,40}, 20:{10,ghost}, 21:{ghost,21}, 40:{ghost,10}.
	if l.NumArcs() != 8 {
		t.Fatalf("%d arcs, want 8", l.NumArcs())
	}
	ghostArcs := 0
	for _, d := range l.dst {
		if d == -1 {
			ghostArcs++
		}
	}
	if ghostArcs != 3 {
		t.Fatalf("%d ghost arcs, want 3", ghostArcs)
	}
	// 10-20 is the lightest edge at both ends; 21 and 40 reach a ghost
	// over their lightest edge, so the border exception freezes them.
	res := Run(l, Options{Excpt: ExcptBorderVertex, DataDriven: true})
	if fmt.Sprint(res.Parent) != "[10 10 21 40]" || fmt.Sprint(res.ChosenIDs) != "[0]" {
		t.Fatalf("parents %v, chosen %v; want [10 10 21 40], [0]", res.Parent, res.ChosenIDs)
	}
}

func TestLocalWindowErrors(t *testing.T) {
	if _, err := NewLocal([]int32{30, 7, 30}, nil); err == nil {
		t.Fatal("duplicate ids accepted")
	}
	for _, e := range []wire.WEdge{{U: 3, V: 50}, {U: 12, V: 15}, {U: 99, V: -4}} {
		if _, err := NewLocal([]int32{10, 20, 40}, []wire.WEdge{e}); err == nil {
			t.Fatalf("edge %d-%d without a local endpoint accepted", e.U, e.V)
		}
	}
	l, err := NewLocal(nil, nil)
	if err != nil || l.N() != 0 || l.index(0) != -1 {
		t.Fatalf("empty view: %v, n=%d", err, l.N())
	}
}
