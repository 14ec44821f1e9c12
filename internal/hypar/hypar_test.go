package hypar

import (
	"fmt"
	"sort"
	"testing"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/device"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/merge"
	"mndmst/internal/mst"
	"mndmst/internal/testutil"
	"mndmst/internal/wire"
)

func onRank(t *testing.T, fn func(rt *Runtime) error) *cluster.Report {
	t.Helper()
	machine := cost.CrayXC40()
	c := cluster.New(1, machine.Comm)
	cfg := DefaultConfig()
	cfg.GPUShare = 0.5
	cfg.MinGPUEdges = 64
	rep, err := c.Run(func(r *cluster.Rank) error {
		cpu := &device.CPU{Model: machine.CPU}
		gpu := &device.GPU{Model: *machine.GPU, OverlapTransfers: true}
		return fn(New(r, cpu, []device.Device{gpu}, cfg))
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func toWire(el *graph.EdgeList) []wire.WEdge {
	out := make([]wire.WEdge, len(el.Edges))
	for i, e := range el.Edges {
		out[i] = wire.WEdge{U: e.U, V: e.V, W: e.W, ID: e.ID}
	}
	return out
}

func allIDs(n int32) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

func TestIndCompCPUOnlyMatchesKruskal(t *testing.T) {
	el := gen.ConnectedRandom(300, 1200, 7)
	want := mst.FilterKruskal(el)
	onRank(t, func(rt *Runtime) error {
		rt.Cfg.GPUShare = 0 // force CPU path
		res, err := rt.IndComp(allIDs(el.N), toWire(el))
		if err != nil {
			return err
		}
		got := &mst.Forest{EdgeIDs: res.ChosenIDs, TotalWeight: weightOf(el, res.ChosenIDs), Components: res.Components}
		if !want.Equal(got) {
			return fmt.Errorf("forest mismatch: %d vs %d edges", len(got.EdgeIDs), len(want.EdgeIDs))
		}
		if res.Seconds <= 0 || rt.R.ComputeTime() <= 0 {
			return fmt.Errorf("time not charged")
		}
		return nil
	})
}

func TestIndCompHybridMatchesKruskal(t *testing.T) {
	el := gen.WebGraph(2000, 20000, 0.85, 9)
	want := mst.FilterKruskal(el)
	onRank(t, func(rt *Runtime) error {
		res, err := rt.IndComp(allIDs(el.N), toWire(el))
		if err != nil {
			return err
		}
		// Hybrid indComp over a fully-owned view with no external edges
		// must complete the whole forest: the node merge kernel sees no
		// cut edges.
		got := &mst.Forest{EdgeIDs: res.ChosenIDs, TotalWeight: weightOf(el, res.ChosenIDs), Components: res.Components}
		if !want.Equal(got) {
			return fmt.Errorf("hybrid forest mismatch: %d vs %d edges, components %d vs %d",
				len(got.EdgeIDs), len(want.EdgeIDs), got.Components, want.Components)
		}
		// Deltas must relabel every vertex to its component representative.
		pf := merge.ApplyDeltas(res.Deltas)
		reps := merge.Representatives(allIDs(el.N), pf)
		if len(reps) != res.Components {
			return fmt.Errorf("reps=%d components=%d", len(reps), res.Components)
		}
		return nil
	})
}

func TestIndCompHybridWithExternalEdges(t *testing.T) {
	// Owned {0..49} of a 100-vertex graph: chosen edges must be a subset
	// of the global MST even with the device split in play.
	el := gen.ErdosRenyi(100, 600, 11)
	want := mst.FilterKruskal(el)
	inMST := map[int32]bool{}
	for _, id := range want.EdgeIDs {
		inMST[id] = true
	}
	g := graph.MustBuildCSR(el)
	onRank(t, func(rt *Runtime) error {
		part := graph.VertexRangeSubgraph(g, 0, 50)
		edges := make([]wire.WEdge, len(part))
		for i, e := range part {
			edges[i] = wire.WEdge{U: e.U, V: e.V, W: e.W, ID: e.ID}
		}
		res, err := rt.IndComp(allIDs(50), edges)
		if err != nil {
			return err
		}
		for _, id := range res.ChosenIDs {
			if !inMST[id] {
				return fmt.Errorf("chose non-MST edge %d", id)
			}
		}
		return nil
	})
}

func TestIndCompSmallGraphSkipsGPU(t *testing.T) {
	el := gen.ConnectedRandom(20, 40, 13)
	onRank(t, func(rt *Runtime) error {
		rt.Cfg.MinGPUEdges = 1 << 30 // too small for GPU
		res, err := rt.IndComp(allIDs(el.N), toWire(el))
		if err != nil {
			return err
		}
		if res.Components != 1 {
			return fmt.Errorf("components=%d", res.Components)
		}
		return nil
	})
}

func TestReduceRemovesSelfAndMultiEdges(t *testing.T) {
	onRank(t, func(rt *Runtime) error {
		pf := func(v int32) int32 {
			if v < 10 {
				return 0
			}
			return 10
		}
		edges := []wire.WEdge{
			{U: 1, V: 2, W: 5, ID: 0},  // self after relabel
			{U: 3, V: 15, W: 9, ID: 1}, // 0-10
			{U: 4, V: 17, W: 3, ID: 2}, // 0-10, lighter: must win
		}
		out := rt.Reduce(edges, pf)
		if len(out) != 1 || out[0].ID != 2 {
			return fmt.Errorf("out=%+v", out)
		}
		return nil
	})
}

func TestPostProcessCompletesForest(t *testing.T) {
	el := gen.ConnectedRandom(200, 800, 17)
	want := mst.FilterKruskal(el)
	onRank(t, func(rt *Runtime) error {
		ids, err := rt.PostProcess(allIDs(el.N), toWire(el))
		if err != nil {
			return err
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		got := &mst.Forest{EdgeIDs: ids, TotalWeight: weightOf(el, ids), Components: int(el.N) - len(ids)}
		if !want.Equal(got) {
			return fmt.Errorf("postProcess wrong forest")
		}
		return nil
	})
}

func TestDiminishingTerminationStopsKernelEarlyOrNot(t *testing.T) {
	// On a long path the per-round time shrinks with the frontier, so the
	// detector should never fire before natural convergence; correctness
	// must hold either way.
	el := gen.RoadNetwork(900, 19)
	want := mst.FilterKruskal(el)
	onRank(t, func(rt *Runtime) error {
		rt.Cfg.GPUShare = 0
		rt.Cfg.DiminishingTermination = true
		res, err := rt.IndComp(allIDs(el.N), toWire(el))
		if err != nil {
			return err
		}
		inMST := map[int32]bool{}
		for _, id := range want.EdgeIDs {
			inMST[id] = true
		}
		for _, id := range res.ChosenIDs {
			if !inMST[id] {
				return fmt.Errorf("non-MST edge %d chosen", id)
			}
		}
		return nil
	})
}

func TestSplitByShares(t *testing.T) {
	owned := []int32{0, 1, 2, 3}
	edges := []wire.WEdge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, // vertex 0 is heavy
		{U: 2, V: 3},
	}
	sets := splitByShares(owned, edges, []float64{0.5, 0.5})
	if len(sets) != 2 {
		t.Fatalf("sets=%v", sets)
	}
	if got := len(sets[0]) + len(sets[1]); got != 4 {
		t.Fatalf("segments cover %d of 4", got)
	}
	// Contiguity: segment 0 is a prefix.
	if len(sets[0]) > 0 && sets[0][0] != 0 {
		t.Fatalf("first segment should take the prefix: %v", sets[0])
	}

	// Three-way split partitions everything exactly once.
	sets = splitByShares(owned, edges, []float64{0.4, 0.3, 0.3})
	seen := map[int32]int{}
	for _, set := range sets {
		for _, c := range set {
			seen[c]++
		}
	}
	for _, c := range owned {
		if seen[c] != 1 {
			t.Fatalf("component %d in %d segments", c, seen[c])
		}
	}

	// Degenerates.
	if got := splitByShares(nil, nil, []float64{1}); len(got) != 1 || got[0] != nil {
		t.Fatalf("empty owned: %v", got)
	}
	one := splitByShares([]int32{5}, nil, []float64{1})
	if len(one) != 1 || len(one[0]) != 1 {
		t.Fatalf("single share: %v", one)
	}
	zero := splitByShares(owned, edges, []float64{0, 0})
	if len(zero[0]) != 4 {
		t.Fatalf("zero shares should keep everything on device 0: %v", zero)
	}
}

// TestSplitBySharesMonotoneInRatio sweeps the accelerator share upward
// over random graphs and owned sets: the segments always tile owned
// exactly (in order, no vertex lost or repeated), and a larger accelerator
// share never gives the CPU segment more vertices.
func TestSplitBySharesMonotoneInRatio(t *testing.T) {
	rng := testutil.Rand(t, 4101)
	gpuShares := []float64{0, 0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1}
	for trial := 0; trial < 40; trial++ {
		n := int32(8 + rng.Intn(200))
		el := gen.ErdosRenyi(n, int(n)*(1+rng.Intn(4)), rng.Int63())
		edges := toWire(el)
		var owned []int32
		for v := int32(0); v < n; v++ {
			if rng.Intn(4) != 0 {
				owned = append(owned, v)
			}
		}
		prevCPU := len(owned) + 1
		for _, g := range gpuShares {
			sets := splitByShares(owned, edges, []float64{1 - g, g})
			var tiled []int32
			for _, set := range sets {
				tiled = append(tiled, set...)
			}
			if fmt.Sprint(tiled) != fmt.Sprint(owned) {
				t.Fatalf("trial %d share=%.2f: segments %v do not tile owned %v", trial, g, sets, owned)
			}
			if len(sets[0]) > prevCPU {
				t.Fatalf("trial %d: share %.2f gave the CPU %d vertices, more than %d at a smaller share",
					trial, g, len(sets[0]), prevCPU)
			}
			prevCPU = len(sets[0])
		}
	}
}

// TestSplitBySharesRanges: on a skewed graph an even split gives two
// contiguous, adjacent vertex ranges that together cover owned, every edge
// reaches at least one device, and a degenerate share keeps the work on
// one device.
func TestSplitBySharesRanges(t *testing.T) {
	el := gen.RMAT(256, 2048, 47)
	edges := toWire(el)
	owned := allIDs(el.N)
	sets := splitByShares(owned, edges, []float64{0.5, 0.5})
	if len(sets) != 2 || len(sets[0]) == 0 || len(sets[1]) == 0 {
		t.Fatalf("even split degenerated: %d segments", len(sets))
	}
	next := owned[0]
	for dev, set := range sets {
		for _, v := range set {
			if v != next {
				t.Fatalf("device %d range not contiguous: got vertex %d, want %d", dev, v, next)
			}
			next++
		}
	}
	if next != el.N {
		t.Fatalf("ranges end at %d, want %d", next, el.N)
	}
	seen := make(map[int32]int)
	for _, dev := range deviceEdgesMulti(edges, sets) {
		for _, e := range dev {
			seen[e.ID]++
		}
	}
	for _, e := range edges {
		if seen[e.ID] < 1 {
			t.Fatalf("edge %d lost in split", e.ID)
		}
	}
	// The split balances edges, so at share 0 the accelerator may still
	// take trailing isolated vertices, but never an edge.
	if cpu := deviceEdgesMulti(edges, splitByShares(owned, edges, []float64{1, 0})); len(cpu[0]) != len(edges) || len(cpu[1]) != 0 {
		t.Fatalf("accelerator share 0 should keep every edge on the CPU: %d+%d of %d", len(cpu[0]), len(cpu[1]), len(edges))
	}
	if gpu := splitByShares(owned, edges, []float64{0, 1}); len(gpu[0]) != 0 || len(gpu[1]) != len(owned) {
		t.Fatalf("accelerator share 1 should move everything to the accelerator: %d+%d", len(gpu[0]), len(gpu[1]))
	}
}

// TestSplitBySharesCutEdgesInBothDevices pins the device-cut contract of
// the live split: after splitByShares and deviceEdgesMulti, an edge inside
// one segment reaches exactly that device and an edge crossing segments
// reaches both (a device-level ghost edge), so no edge is lost. Degenerate
// shares send every edge to one device.
func TestSplitBySharesCutEdgesInBothDevices(t *testing.T) {
	rng := testutil.Rand(t, 4102)
	for trial := 0; trial < 20; trial++ {
		n := int32(8 + rng.Intn(200))
		el := gen.ErdosRenyi(n, int(n)*(1+rng.Intn(4)), rng.Int63())
		edges := toWire(el)
		owned := allIDs(n)
		sets := splitByShares(owned, edges, []float64{0.5, 0.5})
		if len(sets[0]) == 0 || len(sets[1]) == 0 {
			t.Fatalf("trial %d: 0.5 split degenerated: %d+%d", trial, len(sets[0]), len(sets[1]))
		}
		split := sets[1][0]
		out := deviceEdgesMulti(edges, sets)
		seen := make(map[int32]int)
		for _, dev := range out {
			for _, e := range dev {
				seen[e.ID]++
			}
		}
		for _, e := range edges {
			want := 1
			if (e.U < split) != (e.V < split) {
				want = 2
			}
			if seen[e.ID] != want {
				t.Fatalf("trial %d: edge %d (u=%d v=%d, split %d) reaches %d devices, want %d",
					trial, e.ID, e.U, e.V, split, seen[e.ID], want)
			}
		}
		for dev, shares := range [][]float64{{1, 0}, {0, 1}} {
			out := deviceEdgesMulti(edges, splitByShares(owned, edges, shares))
			if len(out[dev]) != len(edges) || len(out[1-dev]) != 0 {
				t.Fatalf("trial %d: shares %v sent %d+%d of %d edges, want all to device %d",
					trial, shares, len(out[0]), len(out[1]), len(edges), dev)
			}
		}
	}
}

// TestSplitBySharesBalance: the accelerator segment carries roughly its
// share of the node's edges.
func TestSplitBySharesBalance(t *testing.T) {
	el := gen.ErdosRenyi(1000, 20000, 51)
	edges := toWire(el)
	sets := splitByShares(allIDs(el.N), edges, []float64{0.75, 0.25})
	out := deviceEdgesMulti(edges, sets)
	frac := float64(len(out[1])) / float64(len(edges))
	if frac < 0.1 || frac > 0.5 {
		t.Fatalf("accelerator holds %.3f of the edges, want ~0.25", frac)
	}
	if len(out[0]) == 0 {
		t.Fatal("cpu segment empty")
	}
}

func TestDeviceEdgesMulti(t *testing.T) {
	sets := [][]int32{{0, 1}, {2, 3}}
	edges := []wire.WEdge{
		{U: 0, V: 1, ID: 0}, // dev0 only
		{U: 1, V: 2, ID: 1}, // both (cross-device)
		{U: 2, V: 3, ID: 2}, // dev1 only
		{U: 0, V: 9, ID: 3}, // dev0 only (9 external to node)
		{U: 3, V: 9, ID: 4}, // dev1 only
	}
	out := deviceEdgesMulti(edges, sets)
	if len(out[0]) != 3 || len(out[1]) != 3 {
		t.Fatalf("dev0=%d dev1=%d edges", len(out[0]), len(out[1]))
	}
}

func weightOf(el *graph.EdgeList, ids []int32) uint64 {
	var s uint64
	for _, id := range ids {
		s += el.Edges[id].W
	}
	return s
}
