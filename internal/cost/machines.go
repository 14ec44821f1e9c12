package cost

// Machine bundles the device and network models of one of the paper's two
// experimental platforms (§5.1). The constants are calibrated to plausible
// per-operation costs for the named hardware; absolute simulated times are
// not meant to match the paper's wall-clock numbers (our workloads are
// ~1/1000 scale), only the relative behaviour.
type Machine struct {
	Name string
	// CPU is the per-node CPU socket model.
	CPU CPUModel
	// GPU is the per-node accelerator, nil if the platform has none.
	GPU *GPUModel
	// Comm is the inter-node network model.
	Comm CommModel
	// NodeSpeeds optionally gives per-node relative throughput factors
	// for heterogeneous clusters (nil or all-1 = the paper's homogeneous
	// assumption, §4.3.1). Factor 2 means twice the throughput of the
	// base CPU/GPU models.
	NodeSpeeds []float64
}

// SpeedOf reports node i's relative speed (1 when unset).
func (m Machine) SpeedOf(i int) float64 {
	if i < 0 || i >= len(m.NodeSpeeds) || m.NodeSpeeds[i] <= 0 {
		return 1
	}
	return m.NodeSpeeds[i]
}

// AMDCluster models the 16-node AMD Opteron 3380 cluster (8 cores @
// 2.6 GHz, 32 GB, Ethernet-class interconnect) used for the Pregel+
// comparison.
func AMDCluster() Machine {
	return Machine{
		Name: "amd-opteron-cluster",
		CPU: CPUModel{
			Cores:      8,
			EdgeCost:   6.0e-8, // ~16.7M edge scans/s/core
			VertexCost: 2.0e-8,
			AtomicCost: 2.5e-8,
			HashCost:   1.0e-7,
			Efficiency: 0.75,
		},
		Comm: CommModel{
			Latency:   30e-6, // 30 µs per message (10GbE-class)
			Bandwidth: 1.2e9, // 1.2 GB/s
		},
	}
}

// CrayXC40 models the Cray XC40 partition: Intel Xeon E5-2695v2 (12 cores
// @ 2.4 GHz, 64 GB) plus one NVIDIA Tesla K40 per node, on the Aries
// interconnect.
func CrayXC40() Machine {
	gpu := K40()
	return Machine{
		Name: "cray-xc40",
		CPU: CPUModel{
			Cores:      12,
			EdgeCost:   5.0e-8, // ~20M edge scans/s/core
			VertexCost: 1.5e-8,
			AtomicCost: 2.0e-8,
			HashCost:   8.0e-8,
			Efficiency: 0.8,
		},
		GPU: &gpu,
		Comm: CommModel{
			Latency:   2e-6, // Aries-class
			Bandwidth: 8e9,
		},
	}
}

// K40 models the Tesla K40 with both kernel optimizations enabled. The
// throughput is calibrated from the paper's end-to-end numbers: §5.4
// reports at most 23% total improvement from adding the GPU, which implies
// the accelerator sustains roughly 0.4× of the 12-core Xeon socket on this
// irregular, atomics-heavy workload — adding it helps, replacing the
// socket with it would not.
func K40() GPUModel {
	return GPUModel{
		LaunchOverhead:        8e-6,
		EdgeThroughput:        8.0e7,
		VertexThroughput:      2.4e8,
		AtomicCost:            4e-9,
		TransferBytesPerSec:   10e9,
		MemoryBytes:           12 << 30, // 12 GB on the K40
		HierarchicalAdjacency: true,
		AtomicBatching:        true,
	}
}
