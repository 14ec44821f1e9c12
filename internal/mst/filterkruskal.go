package mst

import (
	"mndmst/internal/dsu"
	"mndmst/internal/graph"
)

// edge is one non-self-loop input edge in FilterKruskal's flat copy. The
// records sit in one array, so each partition, filter and sort pass reads
// memory in order instead of chasing indices into the edge list.
type edge struct {
	w    uint64
	u, v int32
	id   int32
}

// baseSize is the subproblem size at or below which FilterKruskal sorts
// and unions instead of partitioning further. A radix sort of 2^16
// records beat smaller leaves on the uk-2007, gsh-2015-tpd and road_usa
// shapes alike (EXPERIMENTS.md, "Sequential oracle").
const baseSize = 1 << 16

// FilterKruskal computes the minimum spanning forest with filter-Kruskal
// (Osipov, Sanders, Singler 2009), single-threaded. It partitions the
// edges around a pivot weight, solves the light side first, then drops
// the heavy edges whose endpoints the light side already connected before
// it touches the rest. It stops once the forest spans every vertex. It is
// the repository's sequential oracle and COST baseline. Under duplicate
// weights it returns one of the minimum spanning forests.
func FilterKruskal(el *graph.EdgeList) *Forest {
	n := int(el.N)
	m := 0
	for i := range el.Edges {
		if el.Edges[i].U != el.Edges[i].V {
			m++
		}
	}
	es := make([]edge, 0, m)
	for i := range el.Edges {
		if e := &el.Edges[i]; e.U != e.V {
			es = append(es, edge{w: e.W, u: e.U, v: e.V, id: e.ID})
		}
	}
	k := &filterKruskal{
		d:   dsu.New(n),
		f:   &Forest{EdgeIDs: make([]int32, 0, max(n-1, 0))},
		buf: make([]edge, min(m, baseSize)),
	}
	k.solve(es)
	k.f.Components = n - len(k.f.EdgeIDs)
	k.f.sortIDs()
	return k.f
}

// filterKruskal is one FilterKruskal call's state.
type filterKruskal struct {
	d   *dsu.DSU // the forest's components so far
	f   *Forest
	buf []edge // radixSort's scratch
}

// spanning reports whether the forest is a spanning tree, which no
// further edge can change.
func (k *filterKruskal) spanning() bool { return len(k.f.EdgeIDs) == k.d.Len()-1 }

// solve adds to the forest the edges of es that belong to it. Every edge
// of es is at least as heavy as every edge already considered.
func (k *filterKruskal) solve(es []edge) {
	for len(es) > baseSize && !k.spanning() {
		light := partition(es, medianOfThree(es))
		if light == len(es) {
			// Ties: the pivot is the heaviest weight here, so the split
			// made no progress. Sorting always does.
			break
		}
		k.solve(es[:light])
		es = k.filter(es[light:])
	}
	k.kruskal(es)
}

// kruskal sorts es by weight and unions it into the forest.
func (k *filterKruskal) kruskal(es []edge) {
	if k.spanning() {
		return
	}
	if len(k.buf) < len(es) { // only after solve's tie break
		k.buf = make([]edge, len(es))
	}
	radixSort(es, k.buf)
	for _, e := range es {
		if k.d.Union(e.u, e.v) {
			k.f.EdgeIDs = append(k.f.EdgeIDs, e.id)
			k.f.TotalWeight += e.w
			if k.spanning() {
				return
			}
		}
	}
}

// filter compacts es in place to the edges whose endpoints are still in
// different components, keeping their order.
func (k *filterKruskal) filter(es []edge) []edge {
	kept := es[:0]
	for _, e := range es {
		if k.d.Find(e.u) != k.d.Find(e.v) {
			kept = append(kept, e)
		}
	}
	return kept
}

// partition reorders es in place so that the edges no heavier than pivot
// come first, and returns how many there are.
func partition(es []edge, pivot uint64) int {
	i, j := 0, len(es)-1
	for {
		for i <= j && !graph.WeightLess(pivot, es[i].w) {
			i++
		}
		for i <= j && graph.WeightLess(pivot, es[j].w) {
			j--
		}
		if i > j {
			return i
		}
		es[i], es[j] = es[j], es[i]
		i++
		j--
	}
}

// medianOfThree returns the median weight of es's first, middle and last
// edges.
func medianOfThree(es []edge) uint64 {
	a, b, c := es[0].w, es[len(es)/2].w, es[len(es)-1].w
	if graph.WeightLess(b, a) {
		a, b = b, a
	}
	if graph.WeightLess(c, b) {
		b = c
	}
	if graph.WeightLess(b, a) {
		b = a
	}
	return b
}

// radixSort sorts es stably by weight, using buf (at least as long) as
// scratch: an LSD radix sort over the weight's bytes that skips a byte
// every weight shares. It relies on graph.WeightLess being the unsigned
// order of the packed weights, which TestRadixSortOrdersByWeightLess
// checks.
func radixSort(es, buf []edge) {
	if len(es) < 2 {
		return
	}
	var start [8][256]int
	for i := range es {
		w := es[i].w
		for d := range start {
			start[d][byte(w>>(8*d))]++
		}
	}
	src, dst := es, buf[:len(es)]
	for d := range start {
		c := &start[d]
		if c[byte(src[0].w>>(8*d))] == len(es) {
			continue
		}
		sum := 0
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		for i := range src {
			b := byte(src[i].w >> (8 * d))
			dst[c[b]] = src[i]
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &es[0] {
		copy(es, src)
	}
}
