package core

import (
	"sync"
	"testing"
	"time"

	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
	"mndmst/internal/transport"
)

// runDistributedMST executes RunDistributed for all p ranks of a loopback
// TCP cluster (one goroutine per rank, each with its own socket endpoint)
// and returns the results indexed by rank.
func runDistributedMST(t *testing.T, el *graph.EdgeList, p int, cfg hypar.Config) []*Result {
	t.Helper()
	coord, err := transport.NewCoordinator("127.0.0.1:0", p, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve()

	results := make([]*Result, p)
	errs := make([]error, p)
	ranks := make([]int, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			ranks[slot] = -1
			ep, err := transport.DialTCP(transport.TCPConfig{Coordinator: coord.Addr()})
			if err != nil {
				errs[slot] = err
				return
			}
			defer ep.Close()
			ranks[slot] = ep.Rank()
			results[slot], errs[slot] = RunDistributed(el, ep, amd(), cfg, false)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("distributed MST run deadlocked")
	}
	byRank := make([]*Result, p)
	for slot, err := range errs {
		if err != nil {
			t.Fatalf("worker %d (rank %d): %v", slot, ranks[slot], err)
		}
		byRank[ranks[slot]] = results[slot]
	}
	return byRank
}

func TestRunDistributedMatchesInProcess(t *testing.T) {
	el := gen.ConnectedRandom(600, 2400, 99)
	const p = 4
	cfg := hypar.DefaultConfig()

	want, err := Run(el, p, amd(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	got := runDistributedMST(t, el, p, cfg)

	root := got[0]
	if root.Forest == nil {
		t.Fatal("rank 0 returned no forest")
	}
	for r := 1; r < p; r++ {
		if got[r].Forest != nil {
			t.Fatalf("non-root rank %d returned a forest", r)
		}
	}
	// Acceptance bar 1: the exact same forest over both transports.
	if root.Forest.TotalWeight != want.Forest.TotalWeight ||
		root.Forest.Components != want.Forest.Components ||
		len(root.Forest.EdgeIDs) != len(want.Forest.EdgeIDs) {
		t.Fatalf("forest diverges: weight %d vs %d, components %d vs %d, edges %d vs %d",
			root.Forest.TotalWeight, want.Forest.TotalWeight,
			root.Forest.Components, want.Forest.Components,
			len(root.Forest.EdgeIDs), len(want.Forest.EdgeIDs))
	}
	for i, id := range root.Forest.EdgeIDs {
		if id != want.Forest.EdgeIDs[i] {
			t.Fatalf("forest edge %d: %d vs %d", i, id, want.Forest.EdgeIDs[i])
		}
	}
	if err := VerifyAgainstOracle(el, root); err != nil {
		t.Fatal(err)
	}
	// Acceptance bar 2: bit-identical simulated clocks across backends.
	if root.Report.ExecutionTime() != want.Report.ExecutionTime() {
		t.Fatalf("simulated exec %v (tcp) != %v (in-process)",
			root.Report.ExecutionTime(), want.Report.ExecutionTime())
	}
	if root.Report.CommTime() != want.Report.CommTime() {
		t.Fatalf("simulated comm %v != %v", root.Report.CommTime(), want.Report.CommTime())
	}
	if root.Report.TotalBytes() != want.Report.TotalBytes() ||
		root.Report.TotalMsgs() != want.Report.TotalMsgs() {
		t.Fatalf("traffic %d/%d vs %d/%d",
			root.Report.TotalBytes(), root.Report.TotalMsgs(),
			want.Report.TotalBytes(), want.Report.TotalMsgs())
	}
	// The gathered report holds all P ranks with wall clocks; in-process
	// reports must stay wall-free (byte-identical trace output).
	if len(root.Report.Ranks) != p {
		t.Fatalf("gathered %d ranks, want %d", len(root.Report.Ranks), p)
	}
	if !root.Report.HasWall() {
		t.Fatal("distributed report lost wall clocks")
	}
	if want.Report.HasWall() {
		t.Fatal("in-process report grew wall clocks")
	}
	if root.Iterations != want.Iterations || root.Levels != want.Levels {
		t.Fatalf("iterations/levels %d/%d vs %d/%d",
			root.Iterations, want.Iterations, want.Iterations, want.Levels)
	}
	// Acceptance bar 3: Result documents *global* run statistics. A
	// distributed process hosts a single rank, so PeakEdges must still be
	// the cross-rank maximum — identical to the in-process answer — and
	// every rank (not only rank 0) must report the same global scalars.
	if root.PeakEdges != want.PeakEdges {
		t.Fatalf("PeakEdges %d (tcp rank 0) != %d (in-process global max)", root.PeakEdges, want.PeakEdges)
	}
	for r := 1; r < p; r++ {
		if got[r].PeakEdges != want.PeakEdges || got[r].Iterations != want.Iterations || got[r].Levels != want.Levels {
			t.Fatalf("rank %d reports local stats: peak=%d iter=%d lvls=%d, want global %d/%d/%d",
				r, got[r].PeakEdges, got[r].Iterations, got[r].Levels,
				want.PeakEdges, want.Iterations, want.Levels)
		}
	}
}

func TestRunDistributedTwoRanksRoadGraph(t *testing.T) {
	el := gen.RoadNetwork(700, 31)
	want, err := Run(el, 2, amd(), hypar.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	got := runDistributedMST(t, el, 2, hypar.DefaultConfig())
	if got[0].Forest.TotalWeight != want.Forest.TotalWeight {
		t.Fatalf("weight %d vs %d", got[0].Forest.TotalWeight, want.Forest.TotalWeight)
	}
	if err := VerifyAgainstOracle(el, got[0]); err != nil {
		t.Fatal(err)
	}
	if got[0].Report.ExecutionTime() != want.Report.ExecutionTime() {
		t.Fatalf("exec %v vs %v", got[0].Report.ExecutionTime(), want.Report.ExecutionTime())
	}
}
