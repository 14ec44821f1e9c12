// Package boruvka implements the device-level parallel Boruvka kernel of
// §3.2/§3.5: a data-driven, worklist-based minimum-spanning-forest kernel
// that runs on one device's partition and honours the exception conditions
// of the HyPar API — a component whose lightest outgoing edge leaves the
// partition (a cut edge) is not expanded, so independent per-device
// computations never contract an edge that could be beaten by a remote one.
//
// The kernel operates on a Local view: a set of globally-named vertices
// plus edges whose endpoints may be local or external (ghost). It is used
// both for the initial partition (vertices = owned graph vertices) and for
// every later merge stage (vertices = component representatives).
package boruvka

import (
	"fmt"
	"slices"

	"mndmst/internal/wire"
)

// Local is one device's view of its partition: the global ids of the local
// vertices and the edge list with global endpoint names. Endpoints absent
// from IDs are external (ghost) vertices.
type Local struct {
	IDs   []int32 // sorted ascending, unique
	Edges []wire.WEdge

	// win maps global id IDs[0]+k to its local index win[k], or -1 for a
	// ghost inside the window [IDs[0], IDs[len-1]]; ids outside it are
	// ghosts too.
	win []int32

	// CSR over local indices; arcs exist only from local endpoints.
	off  []int64
	dst  []int32 // local index of head, or -1 if external
	eidx []int32 // index into Edges
	w    []uint64
}

// NewLocal builds a Local view. IDs must be unique; they are sorted
// in place. Every edge must have at least one local endpoint.
func NewLocal(ids []int32, edges []wire.WEdge) (*Local, error) {
	slices.Sort(ids)
	l := &Local{IDs: ids, Edges: edges}
	n := len(ids)
	if n > 0 {
		l.win = make([]int32, int(ids[n-1])-int(ids[0])+1)
		for k := range l.win {
			l.win[k] = -1
		}
		for i, id := range ids {
			if i > 0 && ids[i-1] == id {
				return nil, fmt.Errorf("boruvka: duplicate local id %d", id)
			}
			l.win[int(id)-int(ids[0])] = int32(i)
		}
	}
	counts := make([]int64, n+1)
	for i := range edges {
		e := &edges[i]
		lu, lv := l.index(e.U), l.index(e.V)
		if lu < 0 && lv < 0 {
			return nil, fmt.Errorf("boruvka: edge %d (%d-%d) has no local endpoint", i, e.U, e.V)
		}
		if lu >= 0 {
			counts[lu+1]++
		}
		if lv >= 0 && e.U != e.V { // self-loop on a local vertex: one arc only
			counts[lv+1]++
		}
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	total := counts[n]
	l.off = counts
	l.dst = make([]int32, total)
	l.eidx = make([]int32, total)
	l.w = make([]uint64, total)
	cursor := slices.Clone(counts[:n])
	put := func(tail, head int32, i int) {
		a := cursor[tail]
		cursor[tail]++
		l.dst[a] = head
		l.eidx[a] = int32(i)
		l.w[a] = edges[i].W
	}
	for i := range edges {
		e := &edges[i]
		lu, lv := l.index(e.U), l.index(e.V)
		if lu >= 0 {
			put(lu, lv, i)
		}
		if lv >= 0 && e.U != e.V {
			put(lv, lu, i)
		}
	}
	return l, nil
}

// index returns the local index of global id v, or -1 if v is a ghost.
// An id below IDs[0] wraps to a huge unsigned offset, so one comparison
// rejects ids on either side of the window.
func (l *Local) index(v int32) int32 {
	if len(l.win) == 0 {
		return -1
	}
	if k := uint64(int64(v) - int64(l.IDs[0])); k < uint64(len(l.win)) {
		return l.win[k]
	}
	return -1
}

// N reports the number of local vertices.
func (l *Local) N() int { return len(l.IDs) }

// NumArcs reports the number of local arcs.
func (l *Local) NumArcs() int64 { return int64(len(l.dst)) }

// degreeSkew returns max/avg local degree (1 for empty or regular views).
func (l *Local) degreeSkew() float64 {
	n := l.N()
	if n == 0 || len(l.dst) == 0 {
		return 1
	}
	var max int64
	for u := 0; u < n; u++ {
		if d := l.off[u+1] - l.off[u]; d > max {
			max = d
		}
	}
	avg := float64(len(l.dst)) / float64(n)
	if avg <= 0 {
		return 1
	}
	s := float64(max) / avg
	if s < 1 {
		return 1
	}
	return s
}
