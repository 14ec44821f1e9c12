package core

import (
	"testing"

	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/hypar"
	"mndmst/internal/partition"
)

// TestHeterogeneousCorrectness: mixed-speed nodes must still produce the
// exact forest.
func TestHeterogeneousCorrectness(t *testing.T) {
	el := gen.WebGraph(4096, 50_000, 0.85, 151)
	machine := cost.AMDCluster()
	machine.NodeSpeeds = []float64{1, 2, 0.5, 4}
	res, err := Run(el, 4, machine, hypar.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainstOracle(el, res); err != nil {
		t.Fatal(err)
	}
}

// TestWeightedPartitionHelpsHeterogeneousCluster: on a cluster with one
// slow node, speed-weighted partitioning must beat the speed-blind split
// (the slow node otherwise sets the makespan).
func TestWeightedPartitionHelpsHeterogeneousCluster(t *testing.T) {
	el := gen.WebGraph(16384, 16384*20, 0.85, 153)
	machine := cost.AMDCluster()
	machine.NodeSpeeds = []float64{0.25, 1, 1, 1} // node 0 is 4x slower

	aware, err := Run(el, 4, machine, hypar.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainstOracle(el, aware); err != nil {
		t.Fatal(err)
	}

	blindCfg := hypar.DefaultConfig()
	blindCfg.IgnoreNodeSpeeds = true
	blind, err := Run(el, 4, machine, blindCfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if !aware.Forest.Equal(blind.Forest) {
		t.Fatal("partitioning changed the forest")
	}
	if aware.Report.ExecutionTime() >= blind.Report.ExecutionTime() {
		t.Fatalf("speed-aware partitioning (%g) not faster than speed-blind (%g)",
			aware.Report.ExecutionTime(), blind.Report.ExecutionTime())
	}
}

// TestWeightedBoundsShareMass checks the partition-level property
// directly: a rank with double speed receives roughly double the degree
// mass.
func TestWeightedBoundsShareMass(t *testing.T) {
	degrees := make([]int64, 1000)
	for i := range degrees {
		degrees[i] = 10
	}
	bounds := partition.WeightedBounds(degrees, []float64{1, 2, 1})
	sizes := []int32{bounds[1] - bounds[0], bounds[2] - bounds[1], bounds[3] - bounds[2]}
	if sizes[1] < 2*sizes[0]-50 || sizes[1] > 2*sizes[0]+50 {
		t.Fatalf("sizes=%v: middle rank should get ~2x", sizes)
	}
	var total int32
	for _, s := range sizes {
		total += s
	}
	if total != 1000 {
		t.Fatalf("coverage=%d", total)
	}
	// Degenerate weights fall back to 1.
	b2 := partition.WeightedBounds(degrees, []float64{0, -1})
	if b2[2] != 1000 {
		t.Fatalf("bounds=%v", b2)
	}
}
