package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWorkAdd(t *testing.T) {
	a := Work{EdgesScanned: 10, VerticesProcessed: 5, Iterations: 1, AtomicOps: 2, HashOps: 3, DegreeSkew: 4}
	b := Work{EdgesScanned: 1, VerticesProcessed: 1, Iterations: 1, AtomicOps: 1, HashOps: 1, DegreeSkew: 9}
	a.Add(b)
	if a.EdgesScanned != 11 || a.VerticesProcessed != 6 || a.Iterations != 2 || a.AtomicOps != 3 || a.HashOps != 4 {
		t.Fatalf("sum wrong: %+v", a)
	}
	if a.DegreeSkew != 9 {
		t.Fatalf("skew should take max, got %f", a.DegreeSkew)
	}
	a.Add(Work{DegreeSkew: 2})
	if a.DegreeSkew != 9 {
		t.Fatal("smaller skew must not lower the max")
	}
}

func TestCPUModelScalesWithCores(t *testing.T) {
	w := Work{EdgesScanned: 1_000_000}
	m1 := CPUModel{Cores: 1, EdgeCost: 1e-7, Efficiency: 1}
	m8 := CPUModel{Cores: 8, EdgeCost: 1e-7, Efficiency: 1}
	t1, t8 := m1.Seconds(w), m8.Seconds(w)
	if math.Abs(t1/t8-8) > 1e-9 {
		t.Fatalf("8-core speedup = %f want 8", t1/t8)
	}
}

func TestCPUModelEfficiencyAndDefaults(t *testing.T) {
	w := Work{EdgesScanned: 1000}
	half := CPUModel{Cores: 4, EdgeCost: 1e-6, Efficiency: 0.5}
	full := CPUModel{Cores: 4, EdgeCost: 1e-6, Efficiency: 1}
	if half.Seconds(w) <= full.Seconds(w) {
		t.Fatal("lower efficiency must cost more time")
	}
	// Zero cores / zero efficiency fall back to safe values.
	degenerate := CPUModel{EdgeCost: 1e-6}
	if s := degenerate.Seconds(w); s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
		t.Fatalf("degenerate model returned %f", s)
	}
}

func TestGPUModelLaunchOverheadDominatesSmallWork(t *testing.T) {
	g := K40()
	small := Work{EdgesScanned: 100, Iterations: 50, DegreeSkew: 1}
	// 50 launches at 8µs = 400µs vs 100 edges at ~0.4ns.
	tSmall := g.Seconds(small)
	if tSmall < 50*g.LaunchOverhead {
		t.Fatalf("launch overhead not charged: %g", tSmall)
	}
}

func TestGPUHierarchicalAdjacencyRemovesSkewPenalty(t *testing.T) {
	w := Work{EdgesScanned: 10_000_000, DegreeSkew: 1000, Iterations: 10}
	flat := K40()
	flat.HierarchicalAdjacency = false
	hier := K40()
	tFlat, tHier := flat.Seconds(w), hier.Seconds(w)
	if tFlat <= tHier {
		t.Fatalf("flat=%g hier=%g: skew penalty missing", tFlat, tHier)
	}
	// Regular work (skew 1) must be unaffected by the switch.
	reg := Work{EdgesScanned: 10_000_000, DegreeSkew: 1, Iterations: 10}
	if flat.Seconds(reg) != hier.Seconds(reg) {
		t.Fatal("switch changed regular-work time")
	}
}

func TestGPUAtomicBatching(t *testing.T) {
	w := Work{AtomicOps: 1 << 20}
	on := K40()
	off := K40()
	off.AtomicBatching = false
	if off.Seconds(w) <= on.Seconds(w) {
		t.Fatal("batching should reduce atomic cost")
	}
}

func TestSkewPenaltyMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if a > b {
			a, b = b, a
		}
		return skewPenalty(a) <= skewPenalty(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if skewPenalty(1) != 1 || skewPenalty(0.5) != 1 {
		t.Fatal("skew <= 1 must be free")
	}
}

func TestCommModel(t *testing.T) {
	c := CommModel{Latency: 1e-5, Bandwidth: 1e9}
	if got := c.Seconds(0); got != 1e-5 {
		t.Fatalf("empty message costs %g want latency", got)
	}
	if got := c.Seconds(1e9); math.Abs(got-(1e-5+1)) > 1e-12 {
		t.Fatalf("1GB message costs %g", got)
	}
	// Bigger messages cost more.
	if c.Seconds(100) >= c.Seconds(1000) {
		t.Fatal("cost not monotone in size")
	}
}

func TestCommModelDegenerateBandwidth(t *testing.T) {
	c := CommModel{Latency: 1e-6}
	if s := c.Seconds(100); math.IsInf(s, 0) || math.IsNaN(s) {
		t.Fatalf("degenerate bandwidth gives %f", s)
	}
}

func TestAllreduceAndBarrier(t *testing.T) {
	c := CommModel{Latency: 1e-5, Bandwidth: 1e9}
	if c.AllreduceSeconds(1024, 1) != 0 {
		t.Fatal("single-rank allreduce should be free")
	}
	if c.BarrierSeconds(1) != 0 {
		t.Fatal("single-rank barrier should be free")
	}
	// Cost grows with rank count and data size.
	if c.AllreduceSeconds(1024, 4) >= c.AllreduceSeconds(1024, 16) {
		t.Fatal("allreduce cost should grow with P (latency term)")
	}
	if c.AllreduceSeconds(1024, 8) >= c.AllreduceSeconds(1<<20, 8) {
		t.Fatal("allreduce cost should grow with bytes")
	}
	if c.BarrierSeconds(2) >= c.BarrierSeconds(32) {
		t.Fatal("barrier cost should grow with P")
	}
}

func TestMachineProfiles(t *testing.T) {
	amd := AMDCluster()
	cray := CrayXC40()
	if amd.GPU != nil {
		t.Fatal("AMD cluster must be CPU-only")
	}
	if cray.GPU == nil {
		t.Fatal("Cray must have a GPU")
	}
	if amd.CPU.Cores != 8 || cray.CPU.Cores != 12 {
		t.Fatalf("core counts: amd=%d cray=%d", amd.CPU.Cores, cray.CPU.Cores)
	}
	// Cray's network must be faster in both latency and bandwidth.
	if cray.Comm.Latency >= amd.Comm.Latency || cray.Comm.Bandwidth <= amd.Comm.Bandwidth {
		t.Fatal("Cray interconnect should beat the AMD cluster's")
	}
	// The K40 model must contribute meaningfully but NOT beat the whole
	// socket: §5.4's ≤23% end-to-end gain implies the accelerator runs at
	// roughly 0.3-0.6× of the 12-core socket on this workload.
	w := Work{EdgesScanned: 100_000_000, DegreeSkew: 1, Iterations: 20}
	tCPU := cray.CPU.Seconds(w)
	tGPU := cray.GPU.Seconds(w)
	ratio := tCPU / tGPU // GPU throughput relative to the socket
	if ratio < 0.25 || ratio > 0.7 {
		t.Fatalf("GPU at %.2fx of the socket; outside the band the paper's ≤23%% gains imply", ratio)
	}
}
