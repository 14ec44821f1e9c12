package mndmst

import "mndmst/internal/apps"

// BFSResult holds the distances computed by a distributed breadth-first
// search.
type BFSResult struct {
	// Dist maps every vertex to its hop distance from the source (-1 if
	// unreachable).
	Dist []int32
	// Levels is the number of BFS levels executed.
	Levels int
	// SimSeconds and CommSeconds are the simulated run metrics.
	SimSeconds  float64
	CommSeconds float64
}

// BFS runs a level-synchronous distributed breadth-first search from
// source under the given options (CPU only). BFS is the paper's example of
// an application NOT amenable to divide-and-conquer (§6), so it runs
// BSP-style on the same simulated cluster — a useful communication-pattern
// contrast to FindMSF.
func BFS(g *Graph, opts Options, source int32) (*BFSResult, error) {
	res, err := apps.BFS(g.el, opts.nodes(), opts.Machine.model(), source)
	if err != nil {
		return nil, err
	}
	return &BFSResult{
		Dist:        res.Dist,
		Levels:      res.Levels,
		SimSeconds:  res.Report.ExecutionTime(),
		CommSeconds: res.Report.CommTime(),
	}, nil
}

// CCResult labels every vertex with its connected component.
type CCResult struct {
	// Label maps each vertex to the minimum vertex id of its component.
	Label []int32
	// Components is the number of connected components.
	Components int
	// SimSeconds and CommSeconds are the simulated run metrics.
	SimSeconds  float64
	CommSeconds float64
}

// FindConnectedComponents labels the connected components of g using the
// MND-MST divide-and-conquer pipeline (components are exactly the MSF's
// component structure) — the first of the "more graph applications" the
// paper's conclusion plans on top of the framework.
func FindConnectedComponents(g *Graph, opts Options) (*CCResult, error) {
	res, err := apps.ConnectedComponents(g.el, opts.nodes(), opts.Machine.model(), opts.config())
	if err != nil {
		return nil, err
	}
	return &CCResult{
		Label:       res.Label,
		Components:  res.Components,
		SimSeconds:  res.Report.ExecutionTime(),
		CommSeconds: res.Report.CommTime(),
	}, nil
}

// SSSPResult holds shortest-path distances from a source.
type SSSPResult struct {
	// Dist maps every vertex to its shortest-path distance (in packed
	// weight units); UnreachableDist marks vertices with no path.
	Dist []uint64
	// Rounds is the number of relaxation supersteps.
	Rounds      int
	SimSeconds  float64
	CommSeconds float64
}

// UnreachableDist is the distance reported for unreachable vertices.
const UnreachableDist = ^uint64(0)

// SSSP computes single-source shortest paths with distributed
// Bellman-Ford on the simulated cluster (another of the §6 future-work
// applications; CPU only).
func SSSP(g *Graph, opts Options, source int32) (*SSSPResult, error) {
	res, err := apps.SSSP(g.el, opts.nodes(), opts.Machine.model(), source)
	if err != nil {
		return nil, err
	}
	return &SSSPResult{
		Dist:        res.Dist,
		Rounds:      res.Rounds,
		SimSeconds:  res.Report.ExecutionTime(),
		CommSeconds: res.Report.CommTime(),
	}, nil
}

// PageRankResult holds converged PageRank scores.
type PageRankResult struct {
	Ranks       []float64
	Iterations  int
	SimSeconds  float64
	CommSeconds float64
}

// PageRank runs the classic Pregel application on the simulated cluster
// (undirected interpretation, damped power iteration with per-rank
// message combining).
func PageRank(g *Graph, opts Options, damping, tol float64, maxIter int) (*PageRankResult, error) {
	res, err := apps.PageRank(g.el, opts.nodes(), opts.Machine.model(), damping, tol, maxIter)
	if err != nil {
		return nil, err
	}
	return &PageRankResult{
		Ranks:       res.Ranks,
		Iterations:  res.Iterations,
		SimSeconds:  res.Report.ExecutionTime(),
		CommSeconds: res.Report.CommTime(),
	}, nil
}

// ColoringResult is a proper vertex coloring.
type ColoringResult struct {
	// Color assigns every vertex a color in [0, Colors).
	Color []int32
	// Colors is the number of distinct colors used.
	Colors int
	// Rounds is the number of Jones–Plassmann rounds.
	Rounds      int
	SimSeconds  float64
	CommSeconds float64
}

// Coloring computes a proper vertex coloring with the distributed
// Jones–Plassmann algorithm. With a fixed seed the result is identical at
// every node count.
func Coloring(g *Graph, opts Options, seed int64) (*ColoringResult, error) {
	res, err := apps.Coloring(g.el, opts.nodes(), opts.Machine.model(), seed)
	if err != nil {
		return nil, err
	}
	return &ColoringResult{
		Color:       res.Color,
		Colors:      res.Colors,
		Rounds:      res.Rounds,
		SimSeconds:  res.Report.ExecutionTime(),
		CommSeconds: res.Report.CommTime(),
	}, nil
}
