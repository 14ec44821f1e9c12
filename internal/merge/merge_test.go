package merge

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/testutil"
	"mndmst/internal/wire"
)

func TestRelabelDropsSelfEdges(t *testing.T) {
	parent := map[int32]int32{1: 0, 2: 0, 4: 3}
	pf := func(v int32) int32 {
		if p, ok := parent[v]; ok {
			return p
		}
		return v
	}
	edges := []wire.WEdge{
		{U: 1, V: 2, W: 10, ID: 0}, // both → 0: self edge
		{U: 1, V: 4, W: 20, ID: 1}, // 0 - 3
		{U: 0, V: 5, W: 30, ID: 2}, // 0 - 5
	}
	kept, selfRemoved, w := Relabel(edges, pf)
	if selfRemoved != 1 {
		t.Fatalf("selfRemoved=%d", selfRemoved)
	}
	if len(kept) != 2 || kept[0].U != 0 || kept[0].V != 3 || kept[1].V != 5 {
		t.Fatalf("kept=%+v", kept)
	}
	if w.EdgesScanned != 3 {
		t.Fatalf("work=%+v", w)
	}
}

func TestRemoveMultiEdgesKeepsLightest(t *testing.T) {
	edges := []wire.WEdge{
		{U: 5, V: 3, W: 50, ID: 0}, // pair (3,5)
		{U: 3, V: 5, W: 20, ID: 1}, // lighter, reversed order
		{U: 3, V: 5, W: 90, ID: 2},
		{U: 1, V: 2, W: 10, ID: 3},
	}
	out, w := RemoveMultiEdges(edges)
	if len(out) != 2 {
		t.Fatalf("out=%+v", out)
	}
	// Sorted by (U,V): (1,2) then (3,5).
	if out[0].ID != 3 || out[1].ID != 1 {
		t.Fatalf("out=%+v", out)
	}
	if out[1].U != 3 || out[1].V != 5 {
		t.Fatalf("endpoints not canonical: %+v", out[1])
	}
	if w.HashOps != 4 {
		t.Fatalf("hash ops=%d", w.HashOps)
	}
}

func TestRemoveMultiEdgesDeterministic(t *testing.T) {
	var edges []wire.WEdge
	for i := 0; i < 5000; i++ {
		edges = append(edges, wire.WEdge{
			U: int32(i % 50), V: int32((i * 7) % 50),
			W: uint64(i*2654435761) % (1 << 40), ID: int32(i),
		})
	}
	// Filter self pairs for clean input.
	in := edges[:0]
	for _, e := range edges {
		if e.U != e.V {
			in = append(in, e)
		}
	}
	ref, _ := RemoveMultiEdges(append([]wire.WEdge(nil), in...))
	for trial := 0; trial < 5; trial++ {
		got, _ := RemoveMultiEdges(append([]wire.WEdge(nil), in...))
		if len(got) != len(ref) {
			t.Fatalf("lengths differ")
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("trial %d: out[%d] = %+v vs %+v", trial, i, got[i], ref[i])
			}
		}
	}
}

// removeMultiEdgesReference is the brute-force definition of multi-edge
// removal: an edge survives iff no other edge joins the same unordered
// pair with a lower (weight, id). Survivors come back with U < V, in the
// input's order.
func removeMultiEdgesReference(in []wire.WEdge) []wire.WEdge {
	canon := func(e wire.WEdge) wire.WEdge {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		return e
	}
	var out []wire.WEdge
	for _, e := range in {
		e = canon(e)
		survives := true
		for _, o := range in {
			o = canon(o)
			if o.U == e.U && o.V == e.V && (o.W < e.W || o.W == e.W && o.ID < e.ID) {
				survives = false
				break
			}
		}
		if survives {
			out = append(out, e)
		}
	}
	return out
}

// TestRemoveMultiEdgesMatchesBruteForce offers RemoveMultiEdges candidate
// streams where weights tie everywhere (all equal, or four raw values),
// each pair arrives in both orientations, and the stream comes in
// ascending, descending and shuffled id order. Every presentation must
// keep each pair's (weight, id)-least edge, return the survivors sorted
// by (U, V) with U < V, and price exactly one hash op per input edge.
func TestRemoveMultiEdgesMatchesBruteForce(t *testing.T) {
	rng := testutil.Rand(t, 4001)
	orders := map[string]func([]wire.WEdge){
		"ascending":  func([]wire.WEdge) {},
		"descending": slices.Reverse[[]wire.WEdge],
		"shuffled": func(s []wire.WEdge) {
			rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		},
	}
	for _, wname := range []string{"all-equal", "raw-0-3"} {
		t.Run(wname, func(t *testing.T) {
			var cands []wire.WEdge
			for id := int32(0); id < 600; id++ {
				// Few components and sequential ids: many candidates per pair.
				u, v := int32(rng.Intn(12)), int32(rng.Intn(12))
				if u == v {
					v = u + 1
				}
				w := uint64(7)
				if wname == "raw-0-3" {
					w = uint64(rng.Intn(4))
				}
				cands = append(cands, wire.WEdge{U: u, V: v, W: w, ID: id})
			}
			want := removeMultiEdgesReference(cands)
			slices.SortFunc(want, func(a, b wire.WEdge) int {
				return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
			})
			for _, oname := range []string{"ascending", "descending", "shuffled"} {
				t.Run(oname, func(t *testing.T) {
					in := slices.Clone(cands)
					orders[oname](in)
					got, w := RemoveMultiEdges(in)
					if !slices.Equal(got, want) {
						t.Fatalf("got %d survivors %+v\nwant %d %+v", len(got), got, len(want), want)
					}
					for i, e := range got {
						if e.U >= e.V || i > 0 && cmp.Or(cmp.Compare(got[i-1].U, e.U), cmp.Compare(got[i-1].V, e.V)) >= 0 {
							t.Fatalf("survivor %d %+v not canonical or not (U, V)-sorted", i, e)
						}
					}
					if n := int64(len(cands)); w != (cost.Work{HashOps: n, EdgesScanned: n}) {
						t.Fatalf("work %+v, want HashOps = EdgesScanned = %d", w, n)
					}
				})
			}
		})
	}
}

// TestRemoveMultiEdgesCanonicalPairs offers one pair in both orientations:
// exactly one survivor comes back, with U < V, and it is the (weight,
// id)-least of the two.
func TestRemoveMultiEdgesCanonicalPairs(t *testing.T) {
	f := func(a, b int32, w1, w2 uint64) bool {
		if a == b {
			return true
		}
		in := []wire.WEdge{{U: a, V: b, W: w1, ID: 0}, {U: b, V: a, W: w2, ID: 1}}
		out, _ := RemoveMultiEdges(in)
		if len(out) != 1 || out[0].U != min(a, b) || out[0].V != max(a, b) {
			return false
		}
		wantID := int32(0)
		if w2 < w1 {
			wantID = 1
		}
		return out[0].ID == wantID
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveMultiEdgesReversedTieBreak feeds one pair equal-weight
// candidates in descending and in ascending id order, each in both
// orientations: every presentation keeps the eid-0 edge. Strictly
// descending weights keep the lightest.
func TestRemoveMultiEdgesReversedTieBreak(t *testing.T) {
	const k = 16
	var desc, asc, heavyFirst []wire.WEdge
	for i := int32(k - 1); i >= 0; i-- {
		u, v := int32(5), int32(9)
		if i%2 == 1 {
			u, v = v, u
		}
		desc = append(desc, wire.WEdge{U: u, V: v, W: 7, ID: i})
		heavyFirst = append(heavyFirst, wire.WEdge{U: u, V: v, W: uint64(i) + 1, ID: k - 1 - i})
	}
	asc = slices.Clone(desc)
	slices.Reverse(asc)
	for name, in := range map[string][]wire.WEdge{"descending": desc, "ascending": asc} {
		out, _ := RemoveMultiEdges(slices.Clone(in))
		if len(out) != 1 || out[0] != (wire.WEdge{U: 5, V: 9, W: 7, ID: 0}) {
			t.Fatalf("%s ids: kept %+v, want the eid-0 edge", name, out)
		}
	}
	out, _ := RemoveMultiEdges(heavyFirst)
	if len(out) != 1 || out[0].W != 1 || out[0].ID != k-1 {
		t.Fatalf("descending weights: kept %+v, want W=1 ID=%d", out, k-1)
	}
}

// TestRemoveMultiEdgesShuffledStreamsFindGlobalMinima offers many
// candidates per pair under random weights in several shuffled orders:
// every order keeps exactly one edge per pair, the pair's lightest.
func TestRemoveMultiEdgesShuffledStreamsFindGlobalMinima(t *testing.T) {
	rng := testutil.Rand(t, 3)
	const pairs, perPair = 100, 500
	type pair struct{ u, v int32 }
	var cands []wire.WEdge
	want := map[pair]uint64{}
	for p := 0; p < pairs; p++ {
		a, b := int32(rng.Intn(50)), int32(rng.Intn(50))
		if a == b {
			b = a + 1
		}
		k := pair{min(a, b), max(a, b)}
		for i := 0; i < perPair; i++ {
			w := uint64(rng.Int63n(1 << 40))
			cands = append(cands, wire.WEdge{U: a, V: b, W: w, ID: int32(len(cands))})
			if cur, ok := want[k]; !ok || w < cur {
				want[k] = w
			}
		}
	}
	for trial := 0; trial < 4; trial++ {
		in := slices.Clone(cands)
		rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
		out, _ := RemoveMultiEdges(in)
		if len(out) != len(want) {
			t.Fatalf("trial %d: %d survivors, want %d", trial, len(out), len(want))
		}
		for _, e := range out {
			if w, ok := want[pair{e.U, e.V}]; !ok || e.W != w {
				t.Fatalf("trial %d: pair (%d,%d) kept W=%d, want %d", trial, e.U, e.V, e.W, w)
			}
		}
	}
}

func TestDedupeByID(t *testing.T) {
	edges := []wire.WEdge{
		{U: 1, V: 2, W: 10, ID: 5},
		{U: 0, V: 9, W: 3, ID: 2},
		{U: 1, V: 2, W: 10, ID: 5}, // duplicate copy
	}
	out := DedupeByID(edges)
	if len(out) != 2 || out[0].ID != 2 || out[1].ID != 5 {
		t.Fatalf("out=%+v", out)
	}
}

func TestDeltasFromParents(t *testing.T) {
	ids := []int32{3, 7, 9}
	parents := []int32{3, 3, 7}
	ds := DeltasFromParents(ids, parents)
	if len(ds) != 2 || ds[0] != (Delta{Old: 7, New: 3}) || ds[1] != (Delta{Old: 9, New: 7}) {
		t.Fatalf("deltas=%+v", ds)
	}
}

func TestApplyDeltas(t *testing.T) {
	pf := ApplyDeltas(
		[]Delta{{Old: 5, New: 1}},
		[]Delta{{Old: 9, New: 2}},
	)
	if pf(5) != 1 || pf(9) != 2 || pf(3) != 3 {
		t.Fatal("delta application wrong")
	}
}

func TestFormGroupsAndNeighbors(t *testing.T) {
	groups := FormGroups([]int{6, 0, 2, 4, 8}, 2)
	if len(groups) != 3 {
		t.Fatalf("groups=%v", groups)
	}
	if groups[0][0] != 0 || groups[0][1] != 2 || groups[2][0] != 8 {
		t.Fatalf("groups=%v", groups)
	}
	if Leader(groups[1]) != 4 {
		t.Fatalf("leader=%d", Leader(groups[1]))
	}
	if g := GroupOf(groups, 6); len(g) != 2 || g[1] != 6 {
		t.Fatalf("GroupOf=%v", g)
	}
	if GroupOf(groups, 99) != nil {
		t.Fatal("phantom rank found")
	}
	sendTo, recvFrom := RingNeighbors([]int{0, 2, 4, 6}, 2)
	if sendTo != 0 || recvFrom != 4 {
		t.Fatalf("ring: send=%d recv=%d", sendTo, recvFrom)
	}
	sendTo, recvFrom = RingNeighbors([]int{0, 2, 4, 6}, 0)
	if sendTo != 6 || recvFrom != 2 {
		t.Fatalf("ring wrap: send=%d recv=%d", sendTo, recvFrom)
	}
}

func TestSplitSegment(t *testing.T) {
	kept, sent := SplitSegment([]int32{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	if len(sent) != 2 || sent[0] != 7 || sent[1] != 8 {
		t.Fatalf("sent=%v", sent)
	}
	if len(kept) != 6 {
		t.Fatalf("kept=%v", kept)
	}
	kept, sent = SplitSegment([]int32{5}, 4)
	if len(sent) != 1 || len(kept) != 0 {
		t.Fatalf("single: kept=%v sent=%v", kept, sent)
	}
	kept, sent = SplitSegment(nil, 4)
	if len(sent) != 0 || len(kept) != 0 {
		t.Fatal("empty split wrong")
	}
}

func TestSplitEdges(t *testing.T) {
	kept := []int32{1, 2}
	sent := []int32{3}
	edges := []wire.WEdge{
		{U: 1, V: 2, ID: 0},  // kept only
		{U: 2, V: 3, ID: 1},  // both
		{U: 3, V: 99, ID: 2}, // moved only (other endpoint remote)
		{U: 1, V: 50, ID: 3}, // kept only (other endpoint remote)
	}
	k, m := SplitEdges(edges, kept, sent)
	kida := idsOf(k)
	mids := idsOf(m)
	if fmt.Sprint(kida) != "[0 1 3]" {
		t.Fatalf("kept=%v", kida)
	}
	if fmt.Sprint(mids) != "[1 2]" {
		t.Fatalf("moved=%v", mids)
	}
}

func idsOf(es []wire.WEdge) []int32 {
	out := make([]int32, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

func TestChunkedExchangeAndPayloads(t *testing.T) {
	comm := cost.CommModel{Latency: 1e-6, Bandwidth: 1e9}
	c := cluster.New(3, comm)
	rep, err := c.Run(func(r *cluster.Rank) error {
		active := []int{0, 1, 2}
		local := []Delta{{Old: int32(10 + r.ID()), New: int32(r.ID())}}
		remote, _, err := ExchangeDeltas(r, active, local, 8) // tiny chunks
		if err != nil {
			return err
		}
		if len(remote) != 2 {
			return fmt.Errorf("rank %d: %d remote deltas", r.ID(), len(remote))
		}
		// Remote deltas arrive in ascending sender order.
		wantFirst := int32(10)
		if r.ID() == 0 {
			wantFirst = 11
		}
		if remote[0].Old != wantFirst {
			return fmt.Errorf("rank %d: first delta %+v", r.ID(), remote[0])
		}

		// Payload round trip rank 0 → 1.
		if r.ID() == 0 {
			SendToLeader(r, 1, Payload{
				Comps: []int32{4, 5},
				Edges: []wire.WEdge{{U: 4, V: 9, W: 77, ID: 3}},
			}, 4)
		}
		if r.ID() == 1 {
			p, err := RecvFromMember(r, 0, 4)
			if err != nil {
				return err
			}
			if len(p.Comps) != 2 || len(p.Edges) != 1 || p.Edges[0].W != 77 {
				return fmt.Errorf("payload %+v", p)
			}
		}

		// Forest gather 2 → 0.
		if r.ID() == 2 {
			SendForest(r, 0, []int32{8, 9, 10}, 0)
		}
		if r.ID() == 0 {
			ids, err := RecvForest(r, 2, 0)
			if err != nil {
				return err
			}
			if len(ids) != 3 || ids[2] != 10 {
				return fmt.Errorf("forest ids=%v", ids)
			}
		}

		// Leader merge 1,2 → 0.
		if r.ID() != 0 {
			SendToLeader(r, 0, Payload{Comps: []int32{int32(r.ID())}}, 0)
		} else {
			for _, m := range []int{1, 2} {
				p, err := RecvFromMember(r, m, 0)
				if err != nil {
					return err
				}
				if len(p.Comps) != 1 || p.Comps[0] != int32(m) {
					return fmt.Errorf("member payload %+v", p)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny chunk size must produce multi-phase traffic: more messages than
	// logical transfers.
	if rep.TotalMsgs() < 10 {
		t.Fatalf("msgs=%d; chunking should multiply message count", rep.TotalMsgs())
	}
}

func TestChunkBoundaryProperty(t *testing.T) {
	// Chunked transfers must reassemble exactly for payloads straddling
	// every boundary condition relative to the chunk size.
	comm := cost.CommModel{Latency: 1e-6, Bandwidth: 1e9}
	for _, tc := range []struct {
		payload, chunk int
	}{
		{0, 8}, {1, 8}, {7, 8}, {8, 8}, {9, 8}, {15, 8}, {16, 8}, {17, 8},
		{100, 1}, {5, 1000}, {64, 0 /* default */},
	} {
		c := cluster.New(2, comm)
		_, err := c.Run(func(r *cluster.Rank) error {
			if r.ID() == 0 {
				data := make([]byte, tc.payload)
				for i := range data {
					data[i] = byte(i * 31)
				}
				sendChunked(r, 1, 999, data, tc.chunk)
				return nil
			}
			got, err := recvChunked(r, 0, 999)
			if err != nil {
				return err
			}
			if len(got) != tc.payload {
				return fmt.Errorf("payload %d chunk %d: got %d bytes", tc.payload, tc.chunk, len(got))
			}
			for i := range got {
				if got[i] != byte(i*31) {
					return fmt.Errorf("payload %d chunk %d: byte %d corrupted", tc.payload, tc.chunk, i)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecvChunkedRejectsGarbageHeader(t *testing.T) {
	comm := cost.CommModel{Latency: 1e-6, Bandwidth: 1e9}
	c := cluster.New(2, comm)
	_, err := c.Run(func(r *cluster.Rank) error {
		if r.ID() == 0 {
			r.Send(1, 999, []byte{1, 2}) // too short for a count header
			return nil
		}
		if _, err := recvChunked(r, 0, 999); err == nil {
			return fmt.Errorf("garbage header accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
