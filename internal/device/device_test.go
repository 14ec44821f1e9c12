package device

import (
	"testing"

	"mndmst/internal/boruvka"
	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/mst"
)

func cpuDev() *CPU { m := cost.CrayXC40(); return &CPU{Model: m.CPU} }
func gpuDev() *GPU { return &GPU{Model: cost.K40(), OverlapTransfers: true} }

func fullLocal(t *testing.T, el *graph.EdgeList) *boruvka.Local {
	t.Helper()
	ids := make([]int32, el.N)
	for i := range ids {
		ids[i] = int32(i)
	}
	l, err := boruvka.NewLocal(ids, toWire(el))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestCPUAndGPUProduceSameForest(t *testing.T) {
	el := gen.RMAT(512, 4096, 61)
	want := mst.FilterKruskal(el)
	for _, d := range []Device{cpuDev(), gpuDev()} {
		res, secs := d.Run(fullLocal(t, el), boruvka.DefaultOptions())
		got := &mst.Forest{EdgeIDs: res.ChosenIDs, TotalWeight: res.ChosenWeight, Components: res.Components}
		if !want.Equal(got) {
			t.Fatalf("%s: wrong forest", d.Name())
		}
		if secs <= 0 {
			t.Fatalf("%s: non-positive time %g", d.Name(), secs)
		}
	}
}

func TestGPUChargesTransfers(t *testing.T) {
	el := gen.RMAT(512, 8192, 63)
	l := fullLocal(t, el)
	res := boruvka.Run(l, boruvka.DefaultOptions())

	noOverlap := &GPU{Model: cost.K40(), OverlapTransfers: false}
	overlap := &GPU{Model: cost.K40(), OverlapTransfers: true}
	_, tNo := noOverlap.Run(fullLocal(t, el), boruvka.DefaultOptions())
	_, tYes := overlap.Run(fullLocal(t, el), boruvka.DefaultOptions())
	if tNo <= tYes {
		t.Fatalf("overlap should reduce exposed time: %g vs %g", tNo, tYes)
	}
	kernelOnly := overlap.Price(res.Work)
	if tYes <= kernelOnly {
		t.Fatalf("transfer not charged: total %g kernel %g", tYes, kernelOnly)
	}

	// Disabled transfer model charges nothing extra.
	m := cost.K40()
	m.TransferBytesPerSec = 0
	free := &GPU{Model: m}
	_, tFree := free.Run(fullLocal(t, el), boruvka.DefaultOptions())
	if tFree != free.Price(res.Work) {
		t.Fatalf("transfer charged despite disabled model")
	}
}

func TestEstimateGPUShareInRange(t *testing.T) {
	el := gen.RMAT(2048, 16384, 65)
	g := graph.MustBuildCSR(el)
	share := EstimateGPUShare(g, cpuDev(), gpuDev(), 5, 0.05, 1)
	if share <= 0 || share >= 1 {
		t.Fatalf("share=%f", share)
	}
	// The K40 model runs at a fraction of the socket's throughput, so it
	// gets the smaller share (paper's ≤23% total gains).
	if share < 0.15 || share > 0.5 {
		t.Fatalf("share=%f outside plausible band", share)
	}
}

func TestEstimateGPUShareNilGPU(t *testing.T) {
	el := gen.RMAT(256, 1024, 67)
	g := graph.MustBuildCSR(el)
	if got := EstimateGPUShare(g, cpuDev(), nil, 5, 0.05, 1); got != 0 {
		t.Fatalf("share=%f want 0", got)
	}
}

func TestEstimateGPUShareDeterministicPerSeed(t *testing.T) {
	el := gen.RMAT(1024, 8192, 69)
	g := graph.MustBuildCSR(el)
	a := EstimateGPUShare(g, cpuDev(), gpuDev(), 5, 0.05, 7)
	b := EstimateGPUShare(g, cpuDev(), gpuDev(), 5, 0.05, 7)
	if a != b {
		t.Fatalf("same seed, different shares: %f vs %f", a, b)
	}
}

func TestEstimateGPUShareDegenerateArgs(t *testing.T) {
	el := gen.RMAT(256, 1024, 71)
	g := graph.MustBuildCSR(el)
	share := EstimateGPUShare(g, cpuDev(), gpuDev(), 0, -1, 3) // defaults kick in
	if share <= 0 || share >= 1 {
		t.Fatalf("share=%f", share)
	}
	empty := graph.MustBuildCSR(&graph.EdgeList{N: 0})
	if got := EstimateGPUShare(empty, cpuDev(), gpuDev(), 3, 0.05, 3); got != 0 {
		t.Fatalf("empty graph share=%f", got)
	}
}

func TestEstimateGPUShareMemoryCap(t *testing.T) {
	el := gen.RMAT(2048, 16384, 73)
	g := graph.MustBuildCSR(el)
	unconstrained := EstimateGPUShare(g, cpuDev(), gpuDev(), 5, 0.05, 1)

	tiny := cost.K40()
	tiny.MemoryBytes = 1024 // absurdly small device memory
	capped := EstimateGPUShare(g, cpuDev(), &GPU{Model: tiny}, 5, 0.05, 1)
	if capped >= unconstrained {
		t.Fatalf("memory cap did not reduce the share: %f vs %f", capped, unconstrained)
	}
	maxShare := 1024.0 / float64(g.M*20+int64(g.N)*8)
	if capped > maxShare+1e-12 {
		t.Fatalf("share %f exceeds memory bound %f", capped, maxShare)
	}
}
