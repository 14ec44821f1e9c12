package main

import (
	"fmt"
	"path/filepath"

	"mndmst"
	"mndmst/internal/boruvka"
	"mndmst/internal/cluster"
	"mndmst/internal/core"
	"mndmst/internal/cost"
	"mndmst/internal/device"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
	"mndmst/internal/merge"
	"mndmst/internal/mst"
	"mndmst/internal/partition"
	"mndmst/internal/wire"
)

// simPhases are core's phases, in run order.
var simPhases = []string{core.PhasePartition, core.PhaseIndComp, core.PhaseMerge, core.PhasePostProcess, core.PhaseGather}

// recorder returns the run's span recorder: nil unless tracing.
func (c config) recorder() *recorder {
	if !c.trace {
		return nil
	}
	return newRecorder()
}

// rankTimes are one rank's span durations in the replay, in seconds.
type rankTimes struct {
	read, indcomp, exchange, reduce float64
	cutEdges, deltasSent            int
}

// tracedMetrics completes a traced run: it replays one solve's first
// iteration layer by layer, takes the counts from one core.Run, times the
// standalone FilterKruskal, writes the spans and returns every per-layer
// metric. sl is the run's FindMSF loop on g, gens the generator seconds
// of each set-up, and serveVals the serve layer's metrics.
func tracedMetrics(cfg config, tr *recorder, tl *tally, rec *record, g *mndmst.Graph,
	sl solveSamples, gens []float64, serveVals map[string]float64) (map[string]float64, error) {
	el, err := edgeList(g)
	if err != nil {
		return nil, err
	}
	vals, firstIterS, err := replay(tr, el, webOptions.Nodes)
	if err != nil {
		return nil, err
	}

	machine := cost.AMDCluster()
	sp := tr.start("counts", 0, "core.Run")
	res, err := core.Run(el, webOptions.Nodes, machine, hypar.DefaultConfig(), false)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tl.check(sameForest(sl.want, &mndmst.Result{EdgeIDs: res.Forest.EdgeIDs, TotalWeight: res.Forest.TotalWeight}))
	vals["core.iterations"] = float64(res.Iterations)
	vals["core.levels"] = float64(res.Levels)
	vals["core.peak_edges"] = float64(res.PeakEdges)
	vals["cluster.bytes_sent"] = float64(res.Report.TotalBytes())
	vals["cluster.msgs"] = float64(res.Report.TotalMsgs())
	for _, ph := range simPhases {
		c, m := res.Report.PhaseTime(ph)
		vals["cluster."+ph+".sim_compute_s"] = c
		vals["cluster."+ph+".sim_comm_s"] = m
	}
	vals["core.sim_s_distinct"] = float64(distinct(append(sl.sims, res.Report.ExecutionTime())))

	sp = tr.start("filterkruskal", 0, "mst.FilterKruskal")
	fk := mst.FilterKruskal(el)
	vals["mst.filterkruskal_s"] = tr.end(sp)
	tl.check(sameForest(sl.want, &mndmst.Result{EdgeIDs: fk.EdgeIDs, TotalWeight: fk.TotalWeight}))
	vals["mst.verify_s"] = sl.verifyS

	solveS := median(sl.lat)
	vals["gen.graph_s"] = median(gens)
	vals["core.cost_ratio"] = solveS / median(sl.seqs)
	vals["core.unattributed_s"] = solveS - vals["graph.build_csr_s"] - firstIterS
	vals["trace.overhead_s"] = median(sl.traced) - solveS
	for k, v := range serveVals {
		vals[k] = v
	}
	rec.Samples["traced_solves"] = len(sl.traced)

	rec.SelfS = tr.selfTimes()
	rec.SpansFile = filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	return vals, tr.write(rec.SpansFile)
}

// edgeList rebuilds the public graph's internal edge list, which the layer
// functions take, and checks that it is the same graph.
func edgeList(g *mndmst.Graph) (*graph.EdgeList, error) {
	el := &graph.EdgeList{N: int32(g.NumVertices()), Edges: make([]graph.Edge, g.NumEdges())}
	for i := range el.Edges {
		e := g.EdgeAt(i)
		el.Edges[i] = graph.Edge{U: e.U, V: e.V, ID: int32(i), W: graph.MakeWeight(e.Weight, int32(i))}
	}
	if graph.Digest(el) != g.Digest() {
		return nil, fmt.Errorf("rebuilt edge list differs from the graph")
	}
	return el, nil
}

// replay times the layers of one FindMSF call's first iteration through
// the public functions core calls, in the same order: BuildCSR, then in
// every rank of an in-process cluster partition.ReadWeighted and
// BuildGhostList, hypar's IndComp, and the merge step (ExchangeDeltas,
// ApplyDeltas, Runtime.Reduce). Every rank waits at a barrier before each
// layer span, so no span holds time spent waiting for other ranks to
// finish the layer before it. Each in-rank metric is the slowest rank's;
// a *_skew_s metric is slowest minus fastest. NewLocal and the
// Boruvka kernel are then timed alone on the largest partition. It also
// returns the wall seconds of the whole in-cluster iteration.
func replay(tr *recorder, el *graph.EdgeList, p int) (map[string]float64, float64, error) {
	const run = "replay"
	vals := map[string]float64{}
	sp := tr.start(run, 0, "graph.BuildCSR")
	csr, err := graph.BuildCSR(el)
	vals["graph.build_csr_s"] = tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	vals["graph.arcs"] = float64(csr.NumArcs())

	machine := cost.AMDCluster()
	cfg := hypar.DefaultConfig()
	ranks := make([]rankTimes, p)
	var bigOwned []int32 // the largest partition, kept for the kernel timing
	var bigEdges []wire.WEdge
	active := make([]int, p)
	for i := range active {
		active[i] = i
	}
	clusterSpan := tr.start(run, 0, "cluster.Run")
	_, err = cluster.New(p, machine.Comm).Run(func(r *cluster.Rank) error {
		rt := hypar.New(r, &device.CPU{Model: machine.CPU}, nil, cfg)
		rs := &ranks[r.ID()]
		rankSpan := tr.start(run, clusterSpan, fmt.Sprintf("rank-%d", r.ID()))
		defer tr.end(rankSpan)
		// barrier lets every rank start a layer together; the stat
		// collective charges no simulated time.
		barrier := func() { r.StatAllreduce(nil, cluster.OpMax) }

		r.SetPhase(core.PhasePartition)
		barrier()
		sp := tr.start(run, rankSpan, "partition.ReadWeighted")
		part, w := partition.ReadWeighted(r, csr, partition.ByDegree, nil)
		rs.read = tr.end(sp)
		rt.ChargeWork(w)
		barrier()
		sp = tr.start(run, rankSpan, "partition.BuildGhostList")
		_, w = partition.BuildGhostList(part)
		rs.read += tr.end(sp)
		rt.ChargeWork(w)
		owned := make([]int32, 0, part.NumOwned())
		for v := part.Lo; v < part.Hi; v++ {
			owned = append(owned, v)
		}
		edges := part.Edges
		for _, e := range edges {
			if (e.U < part.Lo || e.U >= part.Hi) != (e.V < part.Lo || e.V >= part.Hi) {
				rs.cutEdges++
			}
		}
		// The merge step rewrites edges in place, so the largest
		// partition (ties to the higher rank) keeps a copy.
		if largest := r.StatAllreduce([]int64{int64(len(edges))*int64(p) + int64(r.ID())}, cluster.OpMax); largest[0]%int64(p) == int64(r.ID()) {
			bigOwned = append([]int32(nil), owned...)
			bigEdges = append([]wire.WEdge(nil), edges...)
		}

		r.SetPhase(core.PhaseIndComp)
		barrier()
		sp = tr.start(run, rankSpan, "hypar.IndComp")
		ind, err := rt.IndComp(owned, edges)
		rs.indcomp = tr.end(sp)
		if err != nil {
			return err
		}

		// As in core: only deltas of boundary components (owned endpoints
		// of cut edges) are sent.
		r.SetPhase(core.PhaseMerge)
		ownedSet := merge.ToSet(owned)
		boundary := map[int32]bool{}
		for _, e := range edges {
			if !ownedSet[e.U] {
				boundary[e.V] = true
			} else if !ownedSet[e.V] {
				boundary[e.U] = true
			}
		}
		var send []merge.Delta
		for _, d := range ind.Deltas {
			if boundary[d.Old] {
				send = append(send, d)
			}
		}
		rs.deltasSent = len(send)
		barrier()
		sp = tr.start(run, rankSpan, "merge.ExchangeDeltas")
		remote, w, err := merge.ExchangeDeltas(r, active, send, cfg.Chunk)
		rs.exchange = tr.end(sp)
		if err != nil {
			return err
		}
		rt.ChargeWork(w)
		barrier()
		sp = tr.start(run, rankSpan, "merge.Reduce")
		pf := merge.ApplyDeltas(ind.Deltas, remote)
		merge.Representatives(owned, pf)
		rt.Reduce(edges, pf)
		rs.reduce = tr.end(sp)
		return nil
	})
	firstIterS := tr.end(clusterSpan)
	if err != nil {
		return nil, 0, err
	}

	var read, indcomp, exchange, reduce, mergeTotal []float64
	var cut, sent int
	for _, rs := range ranks {
		read = append(read, rs.read)
		indcomp = append(indcomp, rs.indcomp)
		exchange = append(exchange, rs.exchange)
		reduce = append(reduce, rs.reduce)
		mergeTotal = append(mergeTotal, rs.exchange+rs.reduce)
		cut += rs.cutEdges
		sent += rs.deltasSent
	}
	vals["partition.read_s"] = maxOf(read)
	vals["partition.skew_s"] = spread(read)
	vals["partition.cut_edges"] = float64(cut / 2) // a cut edge is in both owners' parts
	vals["hypar.indcomp_s"] = maxOf(indcomp)
	vals["hypar.indcomp_skew_s"] = spread(indcomp)
	vals["merge.exchange_deltas_s"] = maxOf(exchange)
	vals["merge.reduce_s"] = maxOf(reduce)
	vals["merge.skew_s"] = spread(mergeTotal)
	vals["merge.deltas_sent"] = float64(sent)

	sp = tr.start(run, 0, "boruvka.NewLocal")
	l, err := boruvka.NewLocal(bigOwned, bigEdges)
	vals["boruvka.new_local_s"] = tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.start(run, 0, "boruvka.Run")
	kr := boruvka.Run(l, boruvka.Options{Excpt: cfg.Excpt, DataDriven: cfg.DataDriven, Contract: cfg.Contract})
	vals["boruvka.kernel_s"] = tr.end(sp)
	vals["boruvka.rounds"] = float64(kr.Rounds)
	vals["boruvka.edges_scanned"] = float64(kr.Work.EdgesScanned)
	return vals, firstIterS, nil
}
