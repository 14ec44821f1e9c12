// Package hypar implements the HyPar programming and runtime framework of
// §4: the per-rank runtime that executes independent computations
// (indComp) on one or both devices of a node, merges the device results
// within the node (§3.5), prices merge-phase reductions, and realizes the
// runtime strategies — CPU:GPU ratio partitioning (§4.3.1),
// diminishing-benefit termination (§4.3.2), and the thresholds that govern
// recursion and hierarchical merging (§4.3.3, §4.3.4).
package hypar

import (
	"fmt"
	"sort"

	"mndmst/internal/boruvka"
	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/device"
	"mndmst/internal/merge"
	"mndmst/internal/wire"
)

// Config carries the tunables of the framework. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// GroupSize is the hierarchical-merging group size (paper: 4).
	GroupSize int
	// MergeEdgeThreshold: when a group's edge total falls to or below this,
	// the group merges to its leader instead of exchanging segments
	// (Algorithm 1 line 7). Zero lets the driver derive a default from the
	// input size.
	MergeEdgeThreshold int64
	// ConvergenceRatio: if a ring-exchange round shrinks the group's data
	// by less than this fraction, exchanges stop and the group merges to
	// its leader (§4.3.4).
	ConvergenceRatio float64
	// MaxRingRounds caps ring exchanges per level (safety net).
	MaxRingRounds int
	// Chunk is the payload chunk size for multi-phase exchanges.
	Chunk int
	// Excpt is the exception condition passed to indComp.
	Excpt boruvka.ExceptionCond
	// DataDriven selects worklist kernels.
	DataDriven bool
	// Contract enables between-round graph contraction in the device
	// kernels (Sousa et al. [7]).
	Contract bool
	// DiminishingTermination enables the §4.3.2 early-stop strategy.
	DiminishingTermination bool
	// GPUShare is the fraction of per-node work given to the GPU
	// (0 = CPU only); set it from device.EstimateGPUShare.
	GPUShare float64
	// MinGPUEdges is the smallest partition worth shipping to the GPU —
	// below it, kernel-launch overhead wins and everything stays on the
	// CPU.
	MinGPUEdges int
	// GPUsPerNode is the number of accelerators per node when GPU use is
	// enabled (0 means 1).
	GPUsPerNode int
	// LeaderOnly disables hierarchical merging and ships every rank's
	// residual data straight to rank 0 after the first reduction — the
	// strawman §3.4 argues against. Used by the merging ablation.
	LeaderOnly bool
	// EqualVertexPartition selects the naive equal-vertex 1D split
	// instead of the Gemini-style degree-balanced one (ablation).
	EqualVertexPartition bool
	// IgnoreNodeSpeeds makes the partitioner speed-blind on heterogeneous
	// machines (devices still run at their true speeds) — the ablation
	// that shows why heterogeneity-aware partitioning matters.
	IgnoreNodeSpeeds bool
	// RecursionMinEdges is the §4.3.3 recursion threshold (the paper used
	// 100M edges at full scale): after the first iteration, a rank whose
	// reduced graph has fewer edges skips further independent
	// computations and proceeds directly with merging, leaving the rest
	// to postProcess. Zero always recurses.
	RecursionMinEdges int
}

// DefaultConfig returns the configuration the paper converges on.
func DefaultConfig() Config {
	return Config{
		GroupSize:              4,
		ConvergenceRatio:       0.10,
		MaxRingRounds:          3,
		Chunk:                  merge.DefaultChunk,
		Excpt:                  boruvka.ExcptBorderVertex,
		DataDriven:             true,
		DiminishingTermination: false,
		MinGPUEdges:            4096,
	}
}

// Runtime is the per-rank HyPar handle. A node always has one CPU device
// and zero or more accelerators; indComp splits the node's partition
// across all of them ("can simultaneously harness multiple devices").
type Runtime struct {
	R    *cluster.Rank
	CPU  device.Device
	GPUs []device.Device // empty on CPU-only platforms
	Cfg  Config
}

// New creates a runtime for the calling rank.
func New(r *cluster.Rank, cpu device.Device, gpus []device.Device, cfg Config) *Runtime {
	return &Runtime{R: r, CPU: cpu, GPUs: gpus, Cfg: cfg}
}

// IndResult is the outcome of one indComp invocation on a node.
type IndResult struct {
	// ChosenIDs are the MST edge ids contracted on this node.
	ChosenIDs []int32
	// Deltas map merged-away component ids to their new representatives.
	Deltas []merge.Delta
	// Components is the number of components owned after the computation.
	Components int
	// Seconds is the simulated node time (already charged to the rank).
	Seconds float64
}

// kernelOpts builds per-device kernel options, each with its own
// terminator closure (the diminishing-benefit detector keeps per-device
// state).
func (rt *Runtime) kernelOpts(dev device.Device) boruvka.Options {
	opt := boruvka.Options{Excpt: rt.Cfg.Excpt, DataDriven: rt.Cfg.DataDriven, Contract: rt.Cfg.Contract}
	if rt.Cfg.DiminishingTermination {
		prev := -1.0
		opt.Terminator = func(round int, w cost.Work, merges int) bool {
			t := dev.Price(w)
			stop := prev >= 0 && t >= prev*0.98
			prev = t
			return stop
		}
	}
	return opt
}

// IndComp performs the independent computation of §4.1.2 on the node: the
// owned components and their incident edges are processed by the CPU alone
// or split across the CPU and every accelerator by the configured share,
// with the device results merged on the CPU afterwards (§3.5). Simulated
// time is charged to the rank. owned must be sorted ascending.
func (rt *Runtime) IndComp(owned []int32, edges []wire.WEdge) (*IndResult, error) {
	useGPU := len(rt.GPUs) > 0 && rt.Cfg.GPUShare > 0 && len(edges) >= rt.Cfg.MinGPUEdges
	if !useGPU {
		l, err := boruvka.NewLocal(owned, edges)
		if err != nil {
			return nil, fmt.Errorf("hypar: indComp: %w", err)
		}
		res, secs := rt.CPU.Run(l, rt.kernelOpts(rt.CPU))
		rt.R.Compute(secs)
		return &IndResult{
			ChosenIDs:  res.ChosenIDs,
			Deltas:     merge.DeltasFromParents(l.IDs, res.Parent),
			Components: res.Components,
			Seconds:    secs,
		}, nil
	}
	return rt.indCompMulti(owned, edges)
}

// indCompMulti splits the node's work between the CPU and every
// accelerator, runs all kernels concurrently (the paper dedicates a
// GPUdriverThread per accelerator; goroutines here), and merges the device
// results on the CPU.
func (rt *Runtime) indCompMulti(owned []int32, edges []wire.WEdge) (*IndResult, error) {
	// Shares: the CPU keeps 1−GPUShare; accelerators split GPUShare evenly.
	devs := make([]device.Device, 0, 1+len(rt.GPUs))
	shares := make([]float64, 0, 1+len(rt.GPUs))
	devs = append(devs, rt.CPU)
	shares = append(shares, 1-rt.Cfg.GPUShare)
	per := rt.Cfg.GPUShare / float64(len(rt.GPUs))
	for _, g := range rt.GPUs {
		devs = append(devs, g)
		shares = append(shares, per)
	}
	sets := splitByShares(owned, edges, shares)
	edgeSets := deviceEdgesMulti(edges, sets)

	type devOut struct {
		res  *boruvka.Result
		ids  []int32
		secs float64
		err  error
	}
	outs := make([]devOut, len(devs))
	ch := make(chan int, len(devs))
	for i := 1; i < len(devs); i++ {
		go func(i int) {
			l, err := boruvka.NewLocal(sets[i], edgeSets[i])
			if err != nil {
				outs[i] = devOut{err: err}
			} else {
				res, secs := devs[i].Run(l, rt.kernelOpts(devs[i]))
				outs[i] = devOut{res: res, ids: l.IDs, secs: secs}
			}
			ch <- i
		}(i)
	}
	lc, err := boruvka.NewLocal(sets[0], edgeSets[0])
	if err == nil {
		res, secs := rt.CPU.Run(lc, rt.kernelOpts(rt.CPU))
		outs[0] = devOut{res: res, ids: lc.IDs, secs: secs}
	} else {
		outs[0] = devOut{err: fmt.Errorf("hypar: cpu view: %w", err)}
	}
	for i := 1; i < len(devs); i++ {
		<-ch
	}
	var devDeltas []merge.Delta
	tInd := 0.0
	for i, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("hypar: device %d: %w", i, o.err)
		}
		if o.secs > tInd {
			tInd = o.secs
		}
		devDeltas = append(devDeltas, merge.DeltasFromParents(o.ids, o.res.Parent)...)
	}

	// Merge the device results on the CPU (§3.5): relabel the node's edges
	// with every device's parents, drop self and multi edges, then run the
	// merge kernel over the node's surviving components.
	pf := merge.ApplyDeltas(devDeltas)
	nodeEdges := append([]wire.WEdge(nil), edges...)
	nodeEdges, _, wRel := merge.Relabel(nodeEdges, pf)
	nodeEdges, wMul := merge.RemoveMultiEdges(nodeEdges)
	var wRed cost.Work
	wRed.Add(wRel)
	wRed.Add(wMul)
	tRed := rt.CPU.Price(wRed)

	comps := merge.Representatives(owned, pf)
	lm, err := boruvka.NewLocal(comps, nodeEdges)
	if err != nil {
		return nil, fmt.Errorf("hypar: node merge view: %w", err)
	}
	mres, msecs := rt.CPU.Run(lm, rt.kernelOpts(rt.CPU))
	total := tInd + tRed + msecs
	rt.R.Compute(total)

	// Compose device deltas with node-merge deltas into one flat map.
	mergeDeltas := merge.DeltasFromParents(lm.IDs, mres.Parent)
	final := merge.ApplyDeltas(mergeDeltas)
	var flat []merge.Delta
	for _, d := range devDeltas {
		flat = append(flat, merge.Delta{Old: d.Old, New: final(d.New)})
	}
	flat = append(flat, mergeDeltas...)
	sort.Slice(flat, func(i, j int) bool { return flat[i].Old < flat[j].Old })

	var chosen []int32
	for _, o := range outs {
		chosen = append(chosen, o.res.ChosenIDs...)
	}
	chosen = append(chosen, mres.ChosenIDs...)
	sort.Slice(chosen, func(i, j int) bool { return chosen[i] < chosen[j] })
	return &IndResult{
		ChosenIDs:  chosen,
		Deltas:     flat,
		Components: mres.Components,
		Seconds:    total,
	}, nil
}

// Reduce prices and performs the merge-phase data reduction on the rank's
// CPU: relabeling through the parent function (self-edge removal) followed
// by multi-edge removal.
func (rt *Runtime) Reduce(edges []wire.WEdge, pf func(int32) int32) []wire.WEdge {
	out, _, wRel := merge.Relabel(edges, pf)
	out, wMul := merge.RemoveMultiEdges(out)
	var w cost.Work
	w.Add(wRel)
	w.Add(wMul)
	rt.R.Compute(rt.CPU.Price(w))
	return out
}

// PostProcess runs the final kernel over the fully-gathered component
// graph (§4.1.4) on the node's fastest suitable device and returns the
// chosen edge ids.
func (rt *Runtime) PostProcess(owned []int32, edges []wire.WEdge) ([]int32, error) {
	l, err := boruvka.NewLocal(owned, edges)
	if err != nil {
		return nil, fmt.Errorf("hypar: postProcess: %w", err)
	}
	opt := boruvka.Options{Excpt: boruvka.ExcptNone, DataDriven: rt.Cfg.DataDriven}
	dev := rt.CPU
	if len(rt.GPUs) > 0 && len(edges) >= rt.Cfg.MinGPUEdges {
		dev = rt.GPUs[0]
	}
	res, secs := dev.Run(l, opt)
	rt.R.Compute(secs)
	return res.ChosenIDs, nil
}

// ChargeWork prices arbitrary CPU-side work (ghost-list construction,
// payload assembly) on the rank.
func (rt *Runtime) ChargeWork(w cost.Work) {
	rt.R.Compute(rt.CPU.Price(w))
}

// splitByShares divides the sorted owned list into len(shares) contiguous
// segments whose edge-incidence mass approximates the given shares — the
// 1D device split of §3.1 generalized to any device count. Devices with a
// zero share get empty segments except that every returned slice set still
// partitions owned. Segments may be empty when owned is small.
func splitByShares(owned []int32, edges []wire.WEdge, shares []float64) [][]int32 {
	k := len(shares)
	sets := make([][]int32, k)
	if len(owned) == 0 || k == 0 {
		return sets
	}
	if k == 1 {
		sets[0] = owned
		return sets
	}
	idx := make(map[int32]int, len(owned))
	for i, c := range owned {
		idx[c] = i
	}
	inc := make([]int64, len(owned))
	for _, e := range edges {
		if i, ok := idx[e.U]; ok {
			inc[i]++
		}
		if i, ok := idx[e.V]; ok && e.V != e.U {
			inc[i]++
		}
	}
	var total int64
	for _, c := range inc {
		total += c
	}
	var shareSum float64
	for _, s := range shares {
		shareSum += s
	}
	if shareSum <= 0 {
		sets[0] = owned
		return sets
	}
	var run int64
	var acc float64
	lo := 0
	for d := 0; d < k-1; d++ {
		acc += shares[d] / shareSum
		target := int64(acc * float64(total))
		hi := lo
		for hi < len(owned) && run < target {
			run += inc[hi]
			hi++
		}
		sets[d] = owned[lo:hi:hi]
		lo = hi
	}
	sets[k-1] = owned[lo:]
	return sets
}

// deviceEdgesMulti distributes the node's edges to the device views: every
// edge goes to each device owning one of its endpoints (cross-device edges
// appear in each involved device, as cut edges).
func deviceEdgesMulti(edges []wire.WEdge, sets [][]int32) [][]wire.WEdge {
	ownerOf := make(map[int32]int, 0)
	for d, set := range sets {
		for _, c := range set {
			ownerOf[c] = d
		}
	}
	out := make([][]wire.WEdge, len(sets))
	for _, e := range edges {
		du, okU := ownerOf[e.U]
		dv, okV := ownerOf[e.V]
		if okU {
			out[du] = append(out[du], e)
		}
		if okV && (!okU || dv != du) {
			out[dv] = append(out[dv], e)
		}
	}
	return out
}
