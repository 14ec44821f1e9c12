package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mndmst/internal/boruvka"
	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
	"mndmst/internal/testutil"
)

// TestChaosConfig fuzzes the whole configuration space at once: random
// workload family, random cluster shape and machine, and every knob set
// randomly. The forest must be exact for every combination; anything that
// crashes, hangs or drifts fails here first.
func TestChaosConfig(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))

		var el *graph.EdgeList
		switch rng.Intn(5) {
		case 0:
			el = gen.ErdosRenyi(int32(4+rng.Intn(200)), rng.Intn(800), seed)
		case 1:
			el = gen.WebGraph(int32(16+rng.Intn(800)), 16+rng.Intn(4000), rng.Float64(), seed)
		case 2:
			el = gen.RoadNetwork(9+rng.Intn(600), seed)
		case 3:
			el = gen.BarabasiAlbert(int32(4+rng.Intn(300)), 1+rng.Intn(4), seed)
		default:
			el = gen.WattsStrogatz(int32(5+rng.Intn(300)), 2+rng.Intn(6), rng.Float64(), seed)
		}

		p := 1 + rng.Intn(9)
		var machine cost.Machine
		useGPU := false
		if rng.Intn(2) == 0 {
			machine = cost.CrayXC40()
			useGPU = rng.Intn(2) == 0
		} else {
			machine = cost.AMDCluster()
		}
		if rng.Intn(3) == 0 {
			speeds := make([]float64, p)
			for i := range speeds {
				speeds[i] = 0.25 + 2*rng.Float64()
			}
			machine.NodeSpeeds = speeds
		}
		machine.Comm.SerializeIngress = rng.Intn(4) == 0

		cfg := hypar.DefaultConfig()
		cfg.GroupSize = 2 + rng.Intn(6)
		cfg.MaxRingRounds = rng.Intn(5)
		cfg.ConvergenceRatio = rng.Float64()
		cfg.Chunk = 1 << (4 + rng.Intn(12))
		if rng.Intn(2) == 0 {
			cfg.Excpt = boruvka.ExcptBorderEdge
		}
		cfg.DataDriven = rng.Intn(2) == 0
		cfg.Contract = rng.Intn(2) == 0
		cfg.DiminishingTermination = rng.Intn(2) == 0
		cfg.LeaderOnly = rng.Intn(4) == 0
		cfg.EqualVertexPartition = rng.Intn(4) == 0
		cfg.IgnoreNodeSpeeds = rng.Intn(4) == 0
		cfg.RecursionMinEdges = rng.Intn(3) * 1000
		cfg.MergeEdgeThreshold = int64(rng.Intn(3)) * 500
		cfg.MinGPUEdges = 1 << (4 + rng.Intn(10))
		cfg.GPUsPerNode = 1 + rng.Intn(3)

		res, err := Run(el, p, machine, cfg, useGPU)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := VerifyAgainstOracle(el, res); err != nil {
			t.Logf("seed %d p=%d cfg=%+v: %v", seed, p, cfg, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, testutil.Quick(t, 1, 40)); err != nil {
		t.Fatal(err)
	}
}
