package merge

import (
	"fmt"
	"testing"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
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
