package hashtable

import (
	"sort"
	"sync"
	"testing"

	"mndmst/internal/graph"
	"mndmst/internal/testutil"
	"mndmst/internal/wire"
)

// Adversarial-distribution coverage: the merge machinery leans on the
// total order of graph.WeightLess being insertion-order- and
// schedule-independent. These tests feed the pair-min table the worst
// key/weight distributions — every weight in the same 16-bit class (ties
// everywhere, decided only by the edge-id low bits), candidates arriving
// in reversed and shuffled tie-break order, and key sets that hotspot a
// single shard — and demand bit-identical outcomes every time.

// equalWeightEdge builds an edge whose 16-bit weight class is constant, so
// ordering is decided entirely by the edge id baked into the low bits.
func equalWeightEdge(u, v, eid int32) wire.WEdge {
	return wire.WEdge{U: u, V: v, W: graph.MakeWeight(7, eid), ID: eid}
}

// TestWeightLessTotalOrderUnderEqualClasses pins the determinism contract
// itself: within one weight class the order is exactly the edge-id order,
// making every tie-break reproducible.
func TestWeightLessTotalOrderUnderEqualClasses(t *testing.T) {
	for i := int32(0); i < 200; i++ {
		for j := int32(0); j < 200; j++ {
			got := graph.WeightLess(graph.MakeWeight(7, i), graph.MakeWeight(7, j))
			if got != (i < j) {
				t.Fatalf("WeightLess(class7:%d, class7:%d) = %v, want %v", i, j, got, i < j)
			}
		}
	}
	// Across classes the class dominates regardless of edge id.
	if !graph.WeightLess(graph.MakeWeight(3, 1000), graph.MakeWeight(4, 0)) {
		t.Fatal("weight class does not dominate edge id")
	}
}

// pairMinReference computes the expected table contents for a candidate
// stream: per unordered pair, the WeightLess-minimum edge.
func pairMinReference(cands []wire.WEdge) map[PairKey]wire.WEdge {
	want := make(map[PairKey]wire.WEdge)
	for _, e := range cands {
		k := MakePairKey(e.U, e.V)
		cur, ok := want[k]
		if !ok || graph.WeightLess(e.W, cur.W) {
			want[k] = e
		}
	}
	return want
}

// checkPairMin asserts the table stores exactly the reference minima.
func checkPairMin(t *testing.T, tab *PairMinTable, want map[PairKey]wire.WEdge) {
	t.Helper()
	got := tab.Edges()
	if len(got) != len(want) {
		t.Fatalf("table has %d pairs, want %d", len(got), len(want))
	}
	for _, e := range got {
		w, ok := want[MakePairKey(e.U, e.V)]
		if !ok {
			t.Fatalf("unexpected pair (%d,%d)", e.U, e.V)
		}
		if e != w {
			t.Fatalf("pair (%d,%d): stored %+v, want minimum %+v", e.U, e.V, e, w)
		}
	}
}

// TestPairMinAllEqualWeightsOrderIndependent offers every pair its
// candidates in ascending, descending (reversed tie-break), and shuffled
// edge-id order; with all weights in one class, the stored minimum must be
// the lowest edge id for every presentation order.
func TestPairMinAllEqualWeightsOrderIndependent(t *testing.T) {
	rng := testutil.Rand(t, 4001)
	const pairs, perPair = 64, 9
	var cands []wire.WEdge
	eid := int32(0)
	for p := int32(0); p < pairs; p++ {
		// Sequential component ids (0,p+1): the shard-hotspot key shape.
		for c := 0; c < perPair; c++ {
			cands = append(cands, equalWeightEdge(0, p+1, eid))
			eid++
		}
	}
	want := pairMinReference(cands)

	orders := map[string]func([]wire.WEdge){
		"ascending":  func([]wire.WEdge) {},
		"descending": func(s []wire.WEdge) { sort.Slice(s, func(i, j int) bool { return s[j].W < s[i].W }) },
		"shuffled": func(s []wire.WEdge) {
			rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		},
	}
	for name, perm := range orders {
		t.Run(name, func(t *testing.T) {
			stream := append([]wire.WEdge(nil), cands...)
			perm(stream)
			tab := NewPairMinTable()
			for _, e := range stream {
				tab.Update(e.U, e.V, e)
			}
			checkPairMin(t, tab, want)
		})
	}
}

// TestPairMinUpdateReturnReversedTieBreak feeds one pair its candidates in
// strictly descending weight order: every offer must win, and the final
// minimum must be the total-order least. Then re-feeds ascending: only the
// first offer wins.
func TestPairMinUpdateReturnReversedTieBreak(t *testing.T) {
	const k = 16
	tab := NewPairMinTable()
	for i := int32(k - 1); i >= 0; i-- {
		if !tab.Update(5, 9, equalWeightEdge(5, 9, i)) {
			t.Fatalf("descending offer eid=%d should have displaced the stored edge", i)
		}
	}
	asc := NewPairMinTable()
	for i := int32(0); i < k; i++ {
		won := asc.Update(5, 9, equalWeightEdge(5, 9, i))
		if won != (i == 0) {
			t.Fatalf("ascending offer eid=%d: won=%v", i, won)
		}
	}
	for _, table := range []*PairMinTable{tab, asc} {
		edges := table.Edges()
		if len(edges) != 1 || edges[0].ID != 0 {
			t.Fatalf("stored %+v, want the eid-0 minimum", edges)
		}
	}
}

// TestPairMinConcurrentShuffledSchedules races many goroutines over the
// same adversarial candidate stream in different shuffled orders; the
// fixed point must equal the sequential reference regardless of schedule.
func TestPairMinConcurrentShuffledSchedules(t *testing.T) {
	rng := testutil.Rand(t, 4002)
	const pairs, perPair, workers = 48, 8, 8
	var cands []wire.WEdge
	eid := int32(0)
	for p := int32(0); p < pairs; p++ {
		for c := 0; c < perPair; c++ {
			cands = append(cands, equalWeightEdge(p%7, p+1, eid))
			eid++
		}
	}
	want := pairMinReference(cands)

	for trial := 0; trial < 5; trial++ {
		tab := NewPairMinTable()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			stream := append([]wire.WEdge(nil), cands...)
			rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
			wg.Add(1)
			go func(stream []wire.WEdge) {
				defer wg.Done()
				for _, e := range stream {
					tab.Update(e.U, e.V, e)
				}
			}(stream)
		}
		wg.Wait()
		checkPairMin(t, tab, want)
		if tab.Len() != len(want) {
			t.Fatalf("Len()=%d want %d", tab.Len(), len(want))
		}
	}
}
