package chaos_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mndmst/internal/chaos"
	"mndmst/internal/cluster"
	"mndmst/internal/core"
	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
	"mndmst/internal/mst"
	"mndmst/internal/testutil"
	"mndmst/internal/transport"
)

// The differential oracle suite: randomized graphs from every generator
// family run through the full distributed MSF computation over
// chaos-wrapped transports, checked edge-for-edge against sequential
// Kruskal. Benign faults (delay, duplicate, reorder, slow links) must be
// invisible — identical forest, identical simulated clocks. Destructive
// faults (drop, corrupt, crash, partition) must surface as typed errors
// within a bounded time, never as a hang and never as a wrong forest.

// oracleCase is one workload of the differential suite.
type oracleCase struct {
	name string
	el   *graph.EdgeList
}

// oracleWorkloads builds the graph-class corpus: every profile family,
// disconnected forests, duplicate weights, self-loops.
func oracleWorkloads(seed int64) []oracleCase {
	cases := []oracleCase{
		// Erdos–Renyi at this density is disconnected and has self-loops.
		{"erdos_renyi_forest", gen.ErdosRenyi(220, 160, seed)},
		{"connected_random", gen.ConnectedRandom(150, 520, seed+1)},
		{"road_network", gen.RoadNetwork(140, seed+2)},
		{"duplicate_weights", duplicateWeights(120, 360, seed+3)},
		{"star_plus_isolated", starPlusIsolated(90, seed+4)},
	}
	for _, p := range gen.Profiles {
		cases = append(cases, oracleCase{"profile_" + p.Name, p.Generate(0.01)})
	}
	return cases
}

// duplicateWeights builds a random multigraph where every edge carries the
// same 16-bit weight class: the MSF is decided entirely by the
// deterministic edge-id tie-break, the distribution most sensitive to any
// nondeterminism the fault layer might introduce.
func duplicateWeights(n int32, m int, seed int64) *graph.EdgeList {
	base := gen.ErdosRenyi(n, m, seed)
	for i := range base.Edges {
		base.Edges[i].W = graph.MakeWeight(7, base.Edges[i].ID)
	}
	return base
}

// starPlusIsolated is a star over the first n/2 vertices with the rest
// isolated — a many-component forest with a hub.
func starPlusIsolated(n int32, seed int64) *graph.EdgeList {
	el := gen.Star(n/2, seed)
	el.N = n
	return el
}

func machine() cost.Machine { return cost.AMDCluster() }

// benignChaos is a fault mix a correct run must absorb: duplicates,
// reordering, and delays on every link of every rank.
func benignChaos(seed int64) chaos.Config {
	return chaos.Config{
		Seed:        seed,
		DupProb:     0.08,
		ReorderProb: 0.08,
		DelayProb:   0.12,
		DelayMax:    150 * time.Microsecond,
		RecvTimeout: 30 * time.Second,
	}
}

// runOverChaosMem executes the distributed computation with every rank's
// in-process endpoint wrapped in the same chaos layer. Results and errors
// are indexed by rank; the whole run is bounded by a watchdog.
func runOverChaosMem(t *testing.T, el *graph.EdgeList, p int, ccfg chaos.Config) ([]*core.Result, []error) {
	t.Helper()
	mems := transport.NewMem(p)
	eps := make([]transport.Transport, p)
	for i, m := range mems {
		eps[i] = m
	}
	wrapped := chaos.Wrap(eps, ccfg)

	results := make([]*core.Result, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer wrapped[r].Close()
			results[r], errs[r] = core.RunDistributed(el, wrapped[r], machine(), hypar.DefaultConfig(), false)
		}(r)
	}
	waitBounded(t, &wg, "chaos Mem run")
	return results, errs
}

// runOverChaosTCP is runOverChaosMem over a loopback TCP mesh: one socket
// endpoint per rank, each wrapped in its own chaos layer (faults on every
// link, exactly as p independently flaky processes would see them).
func runOverChaosTCP(t *testing.T, el *graph.EdgeList, p int, ccfg chaos.Config) ([]*core.Result, []error) {
	t.Helper()
	coord, err := transport.NewCoordinator("127.0.0.1:0", p, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve() //nolint:errcheck

	results := make([]*core.Result, p)
	errs := make([]error, p)
	ranks := make([]int, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			ranks[slot] = -1
			inner, err := transport.DialTCP(transport.TCPConfig{Coordinator: coord.Addr()})
			if err != nil {
				errs[slot] = err
				return
			}
			cfg := ccfg
			ep := chaos.WrapOne(inner, cfg)
			defer ep.Close()
			ranks[slot] = ep.Rank()
			results[slot], errs[slot] = core.RunDistributed(el, ep, machine(), hypar.DefaultConfig(), false)
		}(i)
	}
	waitBounded(t, &wg, "chaos TCP run")
	byRank := make([]*core.Result, p)
	byRankErr := make([]error, p)
	for slot := 0; slot < p; slot++ {
		if ranks[slot] < 0 {
			t.Fatalf("worker %d never joined: %v", slot, errs[slot])
		}
		byRank[ranks[slot]] = results[slot]
		byRankErr[ranks[slot]] = errs[slot]
	}
	return byRank, byRankErr
}

func waitBounded(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(110 * time.Second):
		t.Fatalf("%s deadlocked: ranks still blocked after 110s", what)
	}
}

// checkOracle asserts the distributed result equals the sequential
// Kruskal ground truth: same total weight, same component count, same
// edge set.
func checkOracle(t *testing.T, name string, el *graph.EdgeList, root *core.Result) {
	t.Helper()
	if root == nil || root.Forest == nil {
		t.Fatalf("%s: rank 0 returned no forest", name)
	}
	want := mst.FilterKruskal(el)
	if root.Forest.TotalWeight != want.TotalWeight || root.Forest.Components != want.Components {
		t.Fatalf("%s: MSF diverges from Kruskal oracle: weight %d vs %d, components %d vs %d",
			name, root.Forest.TotalWeight, want.TotalWeight, root.Forest.Components, want.Components)
	}
	if err := core.VerifyAgainstOracle(el, root); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestOracleBenignChaosMem runs every workload class over chaos-wrapped
// in-process transports at 2, 4, and 8 ranks: dup/reorder/delay faults on
// every link, and the forest must still match sequential Kruskal exactly —
// with the simulated clocks of a fault-free run.
func TestOracleBenignChaosMem(t *testing.T) {
	seed := testutil.Seed(t, 20250806)
	for _, tc := range oracleWorkloads(seed) {
		for _, p := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/p%d", tc.name, p), func(t *testing.T) {
				clean, err := core.Run(tc.el, p, machine(), hypar.DefaultConfig(), false)
				if err != nil {
					t.Fatal(err)
				}
				results, errs := runOverChaosMem(t, tc.el, p, benignChaos(seed))
				for r, err := range errs {
					if err != nil {
						t.Fatalf("rank %d failed under benign chaos: %v", r, err)
					}
				}
				checkOracle(t, tc.name, tc.el, results[0])
				// Virtual time is untouched by benign faults: the chaos
				// run must report the clean run's simulated clocks.
				if got, want := results[0].Report.ExecutionTime(), clean.Report.ExecutionTime(); got != want {
					t.Fatalf("benign chaos perturbed simulated execution time: %v vs %v", got, want)
				}
				if got, want := results[0].Report.TotalBytes(), clean.Report.TotalBytes(); got != want {
					t.Fatalf("benign chaos perturbed simulated traffic: %d vs %d bytes", got, want)
				}
			})
		}
	}
}

// TestOracleBenignChaosTCP is the same differential check over real
// loopback sockets: every rank's TCP endpoint gets its own fault layer.
func TestOracleBenignChaosTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP mesh in -short mode")
	}
	seed := testutil.Seed(t, 20250807)
	el := gen.ConnectedRandom(200, 700, seed)
	for _, p := range []int{2, 4} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			results, errs := runOverChaosTCP(t, el, p, benignChaos(seed))
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d failed under benign chaos: %v", r, err)
				}
			}
			checkOracle(t, "tcp", el, results[0])
		})
	}
}

// TestOracleSlowLinksMem degrades several links (slow-start plus a one-shot
// stall) and requires an exact forest: link speed must never change results.
func TestOracleSlowLinksMem(t *testing.T) {
	seed := testutil.Seed(t, 20250808)
	el := gen.RoadNetwork(150, seed)
	const p = 4
	cfg := chaos.Config{
		Seed:        seed,
		RecvTimeout: 30 * time.Second,
		Slow:        []chaos.LinkSlow{{Src: 1, Dst: 0, PerMsg: 100 * time.Microsecond, FirstN: 50}},
		Stall:       []chaos.LinkStall{{Src: 2, Dst: 3, AtSeq: 2, Pause: 5 * time.Millisecond}},
	}
	results, errs := runOverChaosMem(t, el, p, cfg)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d failed under slow links: %v", r, err)
		}
	}
	checkOracle(t, "slow-links", el, results[0])
}

// TestOracleCrashStopMemTyped crash-stops one rank mid-run at every rank
// count and requires: the run terminates within the watchdog, the crashed
// rank's error carries the CrashStopError, and every surviving rank fails
// with a typed cluster error — RankLostError or an AbortError cascade —
// never a hang, never a silently wrong forest.
func TestOracleCrashStopMemTyped(t *testing.T) {
	seed := testutil.Seed(t, 20250809)
	el := gen.ConnectedRandom(150, 500, seed)
	for _, p := range []int{2, 4, 8} {
		crashRank := p / 2
		t.Run(fmt.Sprintf("p%d_rank%d", p, crashRank), func(t *testing.T) {
			cfg := chaos.Config{
				Seed:        seed,
				RecvTimeout: 5 * time.Second,
				Crashes:     []chaos.Crash{{Rank: crashRank, Step: 5}},
			}
			start := time.Now()
			results, errs := runOverChaosMem(t, el, p, cfg)
			elapsed := time.Since(start)
			if elapsed > 60*time.Second {
				t.Fatalf("crash recovery took %v — not bounded by the deadline", elapsed)
			}
			var cse *chaos.CrashStopError
			if !errors.As(errs[crashRank], &cse) {
				t.Fatalf("crashed rank %d: want CrashStopError in chain, got %v", crashRank, errs[crashRank])
			}
			if cse.Rank != crashRank || cse.Step != 5 {
				t.Fatalf("wrong crash coordinates: %+v", cse)
			}
			for r := 0; r < p; r++ {
				if r == crashRank {
					continue
				}
				if errs[r] == nil {
					// A rank that finished before the crash propagated is
					// acceptable only if its result is still exact.
					if r == 0 {
						checkOracle(t, "survivor", el, results[0])
					}
					continue
				}
				var rle *cluster.RankLostError
				var ae *cluster.AbortError
				if !errors.As(errs[r], &rle) && !errors.As(errs[r], &ae) {
					t.Fatalf("rank %d: want typed RankLostError/AbortError, got %v", r, errs[r])
				}
			}
		})
	}
}

// TestOracleCrashStopTCPTyped is the crash-stop contract over real
// sockets: the dead rank's closed connections must surface at every peer
// as typed errors within the deadline.
func TestOracleCrashStopTCPTyped(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP mesh in -short mode")
	}
	seed := testutil.Seed(t, 20250810)
	el := gen.ConnectedRandom(150, 500, seed)
	const p, crashRank = 4, 2
	base := chaos.Config{Seed: seed, RecvTimeout: 5 * time.Second}

	coord, err := transport.NewCoordinator("127.0.0.1:0", p, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve() //nolint:errcheck

	errs := make([]error, p)
	ranks := make([]int, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			ranks[slot] = -1
			inner, err := transport.DialTCP(transport.TCPConfig{
				Coordinator: coord.Addr(),
				PeerTimeout: 3 * time.Second,
			})
			if err != nil {
				errs[slot] = err
				return
			}
			cfg := base
			if inner.Rank() == crashRank {
				cfg.Crashes = []chaos.Crash{{Rank: crashRank, Step: 40}}
			}
			ep := chaos.WrapOne(inner, cfg)
			defer ep.Close()
			ranks[slot] = ep.Rank()
			_, errs[slot] = core.RunDistributed(el, ep, machine(), hypar.DefaultConfig(), false)
		}(i)
	}
	start := time.Now()
	waitBounded(t, &wg, "chaos TCP crash run")
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Fatalf("crash recovery took %v", elapsed)
	}
	byRank := make([]error, p)
	for slot := 0; slot < p; slot++ {
		if ranks[slot] < 0 {
			t.Fatalf("worker %d never joined: %v", slot, errs[slot])
		}
		byRank[ranks[slot]] = errs[slot]
	}
	var cse *chaos.CrashStopError
	if !errors.As(byRank[crashRank], &cse) {
		t.Fatalf("crashed rank: want CrashStopError, got %v", byRank[crashRank])
	}
	for r := 0; r < p; r++ {
		if r == crashRank || byRank[r] == nil {
			continue
		}
		var rle *cluster.RankLostError
		var ae *cluster.AbortError
		if !errors.As(byRank[r], &rle) && !errors.As(byRank[r], &ae) {
			t.Fatalf("rank %d: want typed cluster error, got %v", r, byRank[r])
		}
	}
}

// TestOracleLossNeverWrong injects real message loss and demands the
// strong safety half of the contract: the run either completes with the
// exact Kruskal forest (every dropped message happened to be recoverable)
// or fails with a typed error — it must never deliver a wrong forest.
func TestOracleLossNeverWrong(t *testing.T) {
	seed := testutil.Seed(t, 20250811)
	el := gen.ConnectedRandom(120, 400, seed)
	const p = 4
	cfg := chaos.Config{
		Seed:        seed,
		DropProb:    0.02,
		CorruptProb: 0.01,
		RecvTimeout: 2 * time.Second,
	}
	results, errs := runOverChaosMem(t, el, p, cfg)
	failed := false
	for r := 0; r < p; r++ {
		if errs[r] == nil {
			continue
		}
		failed = true
		var rle *cluster.RankLostError
		var ae *cluster.AbortError
		var cse *chaos.CrashStopError
		if !errors.As(errs[r], &rle) && !errors.As(errs[r], &ae) && !errors.As(errs[r], &cse) {
			t.Fatalf("rank %d: loss surfaced untyped: %v", r, errs[r])
		}
	}
	if !failed {
		checkOracle(t, "lossy-but-lucky", el, results[0])
	}
}

// TestOraclePartitionDetected splits the cluster in half; ranks blocked on
// cross-partition traffic must fail with typed deadline errors, not hang.
func TestOraclePartitionDetected(t *testing.T) {
	seed := testutil.Seed(t, 20250812)
	el := gen.ConnectedRandom(120, 400, seed)
	const p = 4
	cfg := chaos.Config{
		Seed:        seed,
		Isolate:     []int{2, 3},
		RecvTimeout: 2 * time.Second,
	}
	start := time.Now()
	_, errs := runOverChaosMem(t, el, p, cfg)
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Fatalf("partition detection took %v", elapsed)
	}
	anyFailed := false
	for r := 0; r < p; r++ {
		if errs[r] == nil {
			continue
		}
		anyFailed = true
		var rle *cluster.RankLostError
		var ae *cluster.AbortError
		if !errors.As(errs[r], &rle) && !errors.As(errs[r], &ae) {
			t.Fatalf("rank %d: partition surfaced untyped: %v", r, errs[r])
		}
	}
	if !anyFailed {
		t.Fatal("a full bisection went unnoticed — every rank claims success")
	}
}

// TestOracleChaosScheduleReplays reruns one benign-chaos computation with
// the same seed and asserts both the fault journal and the forest are
// identical — a logged seed is a complete reproduction.
func TestOracleChaosScheduleReplays(t *testing.T) {
	seed := testutil.Seed(t, 20250813)
	el := gen.ConnectedRandom(120, 400, seed)
	const p = 4
	run := func() (string, *core.Result) {
		mems := transport.NewMem(p)
		eps := make([]transport.Transport, p)
		for i, m := range mems {
			eps[i] = m
		}
		wrapped := chaos.Wrap(eps, benignChaos(seed))
		results := make([]*core.Result, p)
		errs := make([]error, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				defer wrapped[r].Close()
				results[r], errs[r] = core.RunDistributed(el, wrapped[r], machine(), hypar.DefaultConfig(), false)
			}(r)
		}
		waitBounded(t, &wg, "replay run")
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		return chaos.FormatJournal(wrapped[0].Journal()), results[0]
	}
	j1, r1 := run()
	j2, r2 := run()
	if j1 != j2 {
		t.Fatalf("same seed drew different fault schedules:\n--- run 1 ---\n%s--- run 2 ---\n%s", j1, j2)
	}
	if j1 == "" {
		t.Fatal("no faults injected — replay check is vacuous")
	}
	if !r1.Forest.Equal(r2.Forest) {
		t.Fatal("same seed produced different forests")
	}
}
