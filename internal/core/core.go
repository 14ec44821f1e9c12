// Package core implements MND-MST, the paper's primary contribution
// (Algorithm 1): the multi-node multi-device divide-and-conquer minimum
// spanning forest. Each rank partitions the graph (Gemini-style 1D by
// degree), runs independent Boruvka computations on its devices with the
// border-vertex exception condition, reduces its data (self- and
// multi-edge removal with ghost parent exchanges), and participates in the
// hierarchical merging of §3.4 — ring-based segment exchange within groups
// followed by merges to group leaders, level by level, until a single rank
// holds the residual component graph and post-processes it into the final
// forest.
package core

import (
	"fmt"
	"slices"
	"sort"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/device"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
	"mndmst/internal/merge"
	"mndmst/internal/mst"
	"mndmst/internal/partition"
	"mndmst/internal/transport"
	"mndmst/internal/wire"
)

// Phase labels used for the Figure 7 breakdown.
const (
	PhasePartition   = "partition"
	PhaseIndComp     = "indComp"
	PhaseMerge       = "merge"
	PhasePostProcess = "postProcess"
	PhaseGather      = "gather"
)

// Result bundles the computed forest with the simulated-time report.
type Result struct {
	Forest *mst.Forest
	Report *cluster.Report
	// Iterations is the number of indComp→mergeParts iterations executed.
	Iterations int
	// Levels is the number of hierarchical-merging levels (leader merges).
	Levels int
	// PeakEdges is the maximum number of edge records resident on any
	// single rank at any point — the space bottleneck hierarchical
	// merging bounds (§3.4).
	PeakEdges int
}

// Run executes MND-MST on p simulated ranks of the given machine. useGPU
// selects the multi-device (CPU+GPU) mode when the machine has an
// accelerator; otherwise the run is CPU-only. It builds el's CSR for this
// one run; RunCSR takes a prebuilt one.
func Run(el *graph.EdgeList, p int, machine cost.Machine, cfg hypar.Config, useGPU bool) (*Result, error) {
	g, err := graph.BuildCSR(el)
	if err != nil {
		return nil, err
	}
	return RunCSR(el, g, p, nil, machine, cfg, useGPU)
}

// RunDistributed executes this process's rank of MND-MST over a real
// transport endpoint (one OS process per rank). Every worker must be given
// the identical edge list and configuration; the cluster size is the
// transport's P. On rank 0 the returned Result carries the forest and the
// full gathered report (simulated clocks plus real wall-clock per phase);
// other ranks return a Result with a nil Forest and their local report.
func RunDistributed(el *graph.EdgeList, ep transport.Transport, machine cost.Machine, cfg hypar.Config, useGPU bool) (*Result, error) {
	g, err := graph.BuildCSR(el)
	if err != nil {
		return nil, err
	}
	return RunCSR(el, g, 0, ep, machine, cfg, useGPU)
}

// RunCSR is the one driver behind Run and RunDistributed. g must be
// graph.BuildCSR(el); the run only reads el and g, so concurrent runs may
// share them. ep == nil simulates all p ranks in-process; otherwise only
// ep's rank executes here, p is ignored and the cluster size is ep.P().
func RunCSR(el *graph.EdgeList, g *graph.CSR, p int, ep transport.Transport, machine cost.Machine, cfg hypar.Config, useGPU bool) (*Result, error) {
	if g.N != el.N || g.M != int64(len(el.Edges)) {
		return nil, fmt.Errorf("core: CSR (%d vertices, %d edges) is not the edge list's (%d, %d)", g.N, g.M, el.N, len(el.Edges))
	}
	if ep != nil {
		p = ep.P()
	}
	if cfg.MergeEdgeThreshold == 0 {
		// Default memory-capacity threshold: a group merges to its leader
		// once its residual data fits one rank's original share.
		cfg.MergeEdgeThreshold = g.M / int64(p)
		if cfg.MergeEdgeThreshold < 256 {
			cfg.MergeEdgeThreshold = 256
		}
	}

	cpu := &device.CPU{Model: machine.CPU}
	// Per-rank devices: on heterogeneous clusters (an extension beyond the
	// paper's homogeneous assumption) each rank's devices are scaled by
	// its node speed.
	rankCPU := func(id int) *device.CPU {
		if s := machine.SpeedOf(id); s != 1 {
			return &device.CPU{Model: machine.CPU.Scaled(s)}
		}
		return cpu
	}
	rankGPUs := func(id int) []device.Device {
		if !useGPU || machine.GPU == nil {
			return nil
		}
		k := cfg.GPUsPerNode
		if k < 1 {
			k = 1
		}
		model := *machine.GPU
		if s := machine.SpeedOf(id); s != 1 {
			model = model.Scaled(s)
		}
		var out []device.Device
		for i := 0; i < k; i++ {
			out = append(out, &device.GPU{Model: model, OverlapTransfers: true})
		}
		return out
	}
	if useGPU && machine.GPU != nil && cfg.GPUShare == 0 {
		// One accelerator's share from the §4.3.1 ratio estimation, scaled
		// by the device count (capped so the CPU keeps a working share).
		k := cfg.GPUsPerNode
		if k < 1 {
			k = 1
		}
		share := device.EstimateGPUShare(g, cpu, &device.GPU{Model: *machine.GPU, OverlapTransfers: true}, 5, 0.05, 12345)
		share *= float64(k)
		if share > 0.9 {
			share = 0.9
		}
		cfg.GPUShare = share
	}

	var c *cluster.Cluster
	if ep == nil {
		c = cluster.New(p, machine.Comm)
	} else {
		c = cluster.NewDistributed(ep, machine.Comm)
	}
	var forest *mst.Forest
	iterations := make([]int, p)
	levels := make([]int, p)
	peaks := make([]int, p)
	rep, err := c.Run(func(r *cluster.Rank) error {
		rm := &rankMain{
			r:       r,
			rt:      hypar.New(r, rankCPU(r.ID()), rankGPUs(r.ID()), cfg),
			el:      el,
			g:       g,
			cfg:     cfg,
			machine: machine,
		}
		f, err := rm.run()
		if err != nil {
			return err
		}
		// Result promises *global* run statistics: Iterations/Levels are
		// the (identical-by-construction) global counts and PeakEdges is
		// the per-rank maximum. A distributed process hosts only its own
		// rank, so reduce the scalars across ranks — a zero-virtual-cost
		// stat collective, keeping simulated reports bit-identical to
		// runs without it — and assert the iteration/level agreement that
		// the in-process mode gets for free (max == min, checked by
		// reducing the negated values alongside).
		red := r.StatAllreduce([]int64{
			int64(rm.iter), int64(rm.lvls), int64(rm.peak),
			int64(-rm.iter), int64(-rm.lvls),
		}, cluster.OpMax)
		if red[0] != -red[3] || red[1] != -red[4] {
			return fmt.Errorf("core: rank %d: global state divergence: iterations [%d,%d], levels [%d,%d] across ranks",
				r.ID(), -red[3], red[0], -red[4], red[1])
		}
		iterations[r.ID()] = int(red[0])
		levels[r.ID()] = int(red[1])
		peaks[r.ID()] = int(red[2])
		if f != nil {
			forest = f
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// In a distributed run only rank 0 assembles the forest; the full
	// report (simulated + wall clocks of every rank) is gathered to it over
	// the still-open transport.
	if rep, err = c.GatherReport(rep); err != nil {
		return nil, err
	}
	if forest == nil && c.IsLocal(0) {
		return nil, fmt.Errorf("core: no rank produced the forest")
	}
	peak := 0
	for _, pk := range peaks {
		if pk > peak {
			peak = pk
		}
	}
	first := c.LocalRanks()[0]
	return &Result{Forest: forest, Report: rep, Iterations: iterations[first], Levels: levels[first], PeakEdges: peak}, nil
}

// rankMain carries one rank's state through Algorithm 1.
type rankMain struct {
	r   *cluster.Rank
	rt  *hypar.Runtime
	el  *graph.EdgeList
	g   *graph.CSR
	cfg hypar.Config

	owned   []int32
	edges   []wire.WEdge
	chosen  []int32
	iter    int
	lvls    int
	peak    int
	machine cost.Machine
}

// notePeak records the rank's resident edge count high-water mark.
func (m *rankMain) notePeak() {
	if len(m.edges) > m.peak {
		m.peak = len(m.edges)
	}
}

func (m *rankMain) run() (*mst.Forest, error) {
	r := m.r
	p := r.P()

	// --- Partitioning (§3.1) ---
	r.SetPhase(PhasePartition)
	strat := partition.ByDegree
	if m.cfg.EqualVertexPartition {
		strat = partition.ByVertex
	}
	var speeds []float64
	if len(m.machine.NodeSpeeds) == p && !m.cfg.IgnoreNodeSpeeds {
		speeds = m.machine.NodeSpeeds
	}
	part, w := partition.ReadWeighted(r, m.g, strat, speeds)
	m.rt.ChargeWork(w)
	_, wGhost := partition.BuildGhostList(part)
	m.rt.ChargeWork(wGhost)

	m.owned = make([]int32, 0, part.NumOwned())
	for v := part.Lo; v < part.Hi; v++ {
		m.owned = append(m.owned, v)
	}
	m.edges = part.Edges
	m.notePeak()

	// --- Iterated indComp + mergeParts + hierarchical merging ---
	active := make([]int, p)
	for i := range active {
		active[i] = i
	}
	ringRounds := 0
	prevSums := map[int]int64{} // group index → previous edge total

	// A single-rank run still performs one indComp iteration (with its
	// per-node device split) before post-processing, matching the paper's
	// single-node executions (§3.5).
	for first := true; len(active) > 1 || (first && p == 1 && len(m.edges) > 0); first = false {
		m.iter++
		amActive := containsInt(active, r.ID())

		// indComp (§3.2): independent Boruvka on the devices with the
		// border-vertex exception.
		r.SetPhase(PhaseIndComp)
		var deltas []merge.Delta
		recurse := m.iter == 1 || m.cfg.RecursionMinEdges <= 0 ||
			len(m.edges) >= m.cfg.RecursionMinEdges // §4.3.3 threshold
		if amActive && len(m.owned) > 0 && recurse {
			res, err := m.rt.IndComp(m.owned, m.edges)
			if err != nil {
				return nil, err
			}
			m.chosen = append(m.chosen, res.ChosenIDs...)
			deltas = res.Deltas
		}

		// mergeParts (§3.3): ghost parent exchange, self- and multi-edge
		// removal.
		r.SetPhase(PhaseMerge)
		if amActive {
			// Only boundary components' parent ids go to other ranks,
			// mirroring the ghost-vertex communication of §3.3.
			sendDeltas := merge.BoundaryDeltas(m.owned, m.edges, deltas)
			remote, wEx, err := merge.ExchangeDeltas(r, active, sendDeltas, m.cfg.Chunk)
			if err != nil {
				return nil, err
			}
			m.rt.ChargeWork(wEx)
			pf := merge.ApplyDeltas(deltas, remote)
			m.owned = merge.Representatives(m.owned, pf)
			m.edges = m.rt.Reduce(m.edges, pf)
		}

		// Group accounting: one global allreduce gives every rank each
		// group's residual edge total (Algorithm 1 line 6).
		groups := merge.FormGroups(active, m.cfg.GroupSize)
		if m.cfg.LeaderOnly {
			groups = [][]int{append([]int(nil), active...)}
		}
		vec := make([]int64, len(groups))
		if amActive {
			vec[groupIndex(groups, r.ID())] = int64(len(m.edges))
		}
		sums := r.Allreduce(vec, cluster.OpSum)

		// Decide per group: ring exchange or merge to leader (§4.3.4).
		toLeader := make([]bool, len(groups))
		for gi, grp := range groups {
			switch {
			case m.cfg.LeaderOnly:
				toLeader[gi] = true
			case len(grp) == 1:
				toLeader[gi] = true
			case sums[gi] <= m.cfg.MergeEdgeThreshold:
				toLeader[gi] = true
			case ringRounds >= m.cfg.MaxRingRounds:
				toLeader[gi] = true
			default:
				if prev, ok := prevSums[gi]; ok {
					// Convergence: the last round failed to shrink the
					// group's data enough.
					if float64(sums[gi]) > float64(prev)*(1-m.cfg.ConvergenceRatio) {
						toLeader[gi] = true
					}
				}
			}
		}

		if amActive {
			grp := merge.GroupOf(groups, r.ID())
			gi := groupIndex(groups, r.ID())
			if toLeader[gi] {
				leader := merge.Leader(grp)
				if r.ID() != leader {
					merge.SendToLeader(r, leader, merge.Payload{Comps: m.owned, Edges: m.edges}, m.cfg.Chunk)
					m.owned, m.edges = nil, nil
				} else {
					for _, member := range grp {
						if member == leader {
							continue
						}
						pl, err := merge.RecvFromMember(r, member, m.cfg.Chunk)
						if err != nil {
							return nil, err
						}
						m.owned = append(m.owned, pl.Comps...)
						m.edges = append(m.edges, pl.Edges...)
					}
					slices.Sort(m.owned)
					m.edges = merge.DedupeByID(m.edges)
					m.rt.ChargeWork(cost.Work{EdgesScanned: int64(len(m.edges))})
					m.notePeak()
				}
			} else {
				// Ring-based segment exchange (§3.4): one chunk-interleaved
				// ring step — the segment streams to the left neighbour
				// while the right neighbour's streams in, so the whole ring
				// progresses without any rank blocking in a send.
				sendTo, recvFrom := merge.RingNeighbors(grp, r.ID())
				kept, sent := merge.SplitSegment(m.owned, len(grp))
				keptE, movedE := merge.SplitEdges(m.edges, kept, sent)
				pl, err := merge.ExchangeSegments(r, sendTo, recvFrom, merge.Payload{Comps: sent, Edges: movedE}, m.cfg.Chunk)
				if err != nil {
					return nil, err
				}
				m.owned = append(kept, pl.Comps...)
				slices.Sort(m.owned)
				m.edges = merge.DedupeByID(append(keptE, pl.Edges...))
				m.rt.ChargeWork(cost.Work{EdgesScanned: int64(len(m.edges))})
				m.notePeak()
			}
		}

		// Advance the global state machine identically on every rank.
		anyLeaderMerge := false
		var newActive []int
		for gi, grp := range groups {
			if toLeader[gi] {
				newActive = append(newActive, merge.Leader(grp))
				anyLeaderMerge = true
			} else {
				newActive = append(newActive, grp...)
			}
		}
		sort.Ints(newActive)
		if anyLeaderMerge && len(newActive) < len(active) {
			m.lvls++
			ringRounds = 0
			prevSums = map[int]int64{}
		} else {
			ringRounds++
			for gi := range groups {
				prevSums[gi] = sums[gi]
			}
		}
		active = newActive
	}

	// --- Post processing (§4.1.4) on the final rank ---
	r.SetPhase(PhasePostProcess)
	final := active[0]
	if r.ID() == final && len(m.owned) > 0 {
		ids, err := m.rt.PostProcess(m.owned, m.edges)
		if err != nil {
			return nil, err
		}
		m.chosen = append(m.chosen, ids...)
	}

	// --- Gather the distributed forest to rank 0 ---
	r.SetPhase(PhaseGather)
	if r.ID() != 0 {
		merge.SendForest(r, 0, m.chosen, m.cfg.Chunk)
		return nil, nil
	}
	parts := [][]int32{m.chosen}
	for src := 1; src < p; src++ {
		ids, err := merge.RecvForest(r, src, m.cfg.Chunk)
		if err != nil {
			return nil, err
		}
		parts = append(parts, ids)
	}
	// One exactly sized copy: callers such as serve's result cache keep
	// the forest, so it must not carry append slack.
	all := slices.Concat(parts...)
	slices.Sort(all)
	f := &mst.Forest{EdgeIDs: all}
	for _, id := range all {
		f.TotalWeight += m.el.Edges[id].W
	}
	f.Components = int(m.el.N) - len(all)
	return f, nil
}

// groupIndex locates the group containing rank.
func groupIndex(groups [][]int, rank int) int {
	for gi, grp := range groups {
		for _, r := range grp {
			if r == rank {
				return gi
			}
		}
	}
	panic(fmt.Sprintf("core: rank %d in no group", rank))
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// VerifyAgainstOracle checks a Result against the sequential ground truth
// (mst.FilterKruskal) and the full forest verifier; test helper shared by
// packages and cmds.
func VerifyAgainstOracle(el *graph.EdgeList, res *Result) error {
	want := mst.FilterKruskal(el)
	if !want.Equal(res.Forest) {
		return fmt.Errorf("core: forest mismatch: weight %d vs %d, edges %d vs %d",
			res.Forest.TotalWeight, want.TotalWeight, len(res.Forest.EdgeIDs), len(want.EdgeIDs))
	}
	return mst.VerifyForest(el, res.Forest)
}
