package bench

import (
	"fmt"

	"mndmst/internal/apps"
	"mndmst/internal/bsp"
	"mndmst/internal/core"
	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
)

// Opts configures an experiment run.
type Opts struct {
	// Scale shrinks the profile workloads (1.0 = reproduction size).
	Scale float64
	// Verify cross-checks every computed forest against Kruskal.
	Verify bool
}

// DefaultOpts runs at full reproduction scale without verification.
func DefaultOpts() Opts { return Opts{Scale: 1.0} }

func (o Opts) scale() float64 {
	if o.Scale <= 0 {
		return 1.0
	}
	return o.Scale
}

// workload caches generated graphs per profile.
type workload struct {
	opts   Opts
	graphs map[string]*graph.EdgeList
}

func newWorkload(opts Opts) *workload {
	return &workload{opts: opts, graphs: map[string]*graph.EdgeList{}}
}

func (w *workload) get(name string) (*graph.EdgeList, error) {
	if el, ok := w.graphs[name]; ok {
		return el, nil
	}
	p, err := gen.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	el := p.Generate(w.opts.scale())
	w.graphs[name] = el
	return el, nil
}

func (w *workload) runMND(el *graph.EdgeList, p int, m cost.Machine, cfg hypar.Config, gpu bool) (*core.Result, error) {
	res, err := core.Run(el, p, m, cfg, gpu)
	if err != nil {
		return nil, err
	}
	if w.opts.Verify {
		if err := core.VerifyAgainstOracle(el, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (w *workload) runBSP(el *graph.EdgeList, p int, m cost.Machine) (*bsp.Result, error) {
	res, err := bsp.Run(el, p, m)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table2 regenerates the graph-specification table: the synthetic analogue
// of every paper graph with its measured statistics next to the original's
// published size.
func Table2(opts Opts) (*Table, error) {
	t := &Table{
		Title:  "Table 2: Graph specifications (synthetic analogues at reproduction scale)",
		Header: []string{"Graph", "|V|", "|E|", "Approx.Diam", "Avg.Deg", "Max.Deg", "Paper |V|", "Paper |E|"},
	}
	for _, p := range gen.Profiles {
		el := p.Generate(opts.scale())
		st := graph.ComputeStats(graph.MustBuildCSR(el))
		t.AddRow(p.Name,
			fmt.Sprintf("%d", st.V),
			fmt.Sprintf("%d", st.E),
			fmt.Sprintf("%d", st.ApproxDiam),
			fmt.Sprintf("%.2f", st.AvgDegree),
			fmt.Sprintf("%d", st.MaxDegree),
			p.PaperV, p.PaperE)
	}
	t.AddNote("analogues preserve shape (degree distribution, diameter class, relative sizes) at ~1/1000 scale")
	return t, nil
}

// Table3 regenerates the Pregel+ comparison: execution and communication
// time of both systems on all six graphs at 16 CPU-only nodes of the AMD
// cluster, plus the improvement percentages the paper reports.
func Table3(opts Opts) (*Table, error) {
	w := newWorkload(opts)
	t := &Table{
		Title: "Table 3: Performance comparison with Pregel+ (16 nodes, AMD cluster, CPU only; simulated seconds)",
		Header: []string{"Graph", "Pregel+ Exe", "Pregel+ Comm", "MND-MST Exe", "MND-MST Comm",
			"Exe Improv", "Comm Reduc"},
	}
	machine := cost.AMDCluster()
	for _, p := range gen.Profiles {
		el, err := w.get(p.Name)
		if err != nil {
			return nil, err
		}
		b, err := w.runBSP(el, 16, machine)
		if err != nil {
			return nil, fmt.Errorf("bsp %s: %w", p.Name, err)
		}
		m, err := w.runMND(el, 16, machine, hypar.DefaultConfig(), false)
		if err != nil {
			return nil, fmt.Errorf("mnd %s: %w", p.Name, err)
		}
		if !b.Forest.Equal(m.Forest) {
			return nil, fmt.Errorf("table3 %s: systems disagree on the forest", p.Name)
		}
		be, bc := b.Report.ExecutionTime(), b.Report.CommTime()
		me, mc := m.Report.ExecutionTime(), m.Report.CommTime()
		t.AddRow(p.Name, fsec(be), fsec(bc), fsec(me), fsec(mc),
			fpct((be-me)/be), fpct((bc-mc)/bc))
	}
	t.AddNote("paper: 75-88%% exe improvement (gsh-2015: 24%%); 85-92%% comm reduction (gsh-2015: ~40%%)")
	return t, nil
}

// table4Graphs are the graphs of Table 4 / Figure 4.
var table4Graphs = []string{"arabic-2005", "it-2004"}

// nodeCounts are the cluster sizes the paper sweeps.
var nodeCounts = []int{1, 4, 8, 16}

// Table4 regenerates the node-scaling table: MND-MST total time on the AMD
// cluster for 1, 4, 8 and 16 nodes.
func Table4(opts Opts) (*Table, error) {
	w := newWorkload(opts)
	t := &Table{
		Title:  "Table 4: MND-MST with increasing node count (AMD cluster; simulated seconds)",
		Header: append([]string{"Nodes"}, table4Graphs...),
	}
	machine := cost.AMDCluster()
	times := map[string]map[int]float64{}
	for _, name := range table4Graphs {
		el, err := w.get(name)
		if err != nil {
			return nil, err
		}
		times[name] = map[int]float64{}
		for _, p := range nodeCounts {
			res, err := w.runMND(el, p, machine, hypar.DefaultConfig(), false)
			if err != nil {
				return nil, err
			}
			times[name][p] = res.Report.ExecutionTime()
		}
	}
	for _, p := range nodeCounts {
		row := []string{fmt.Sprintf("%d", p)}
		for _, name := range table4Graphs {
			row = append(row, fsec(times[name][p]))
		}
		t.AddRow(row...)
	}
	for _, name := range table4Graphs {
		t.AddNote("%s speedup vs 1 node: 4n=%s 8n=%s 16n=%s (paper arabic-2005: 2.12x @4n, 2.64x @16n)",
			name,
			fx(times[name][1]/times[name][4]),
			fx(times[name][1]/times[name][8]),
			fx(times[name][1]/times[name][16]))
	}
	return t, nil
}

// Figure4 regenerates the inter-node scalability comparison of Pregel+ and
// MND-MST on arabic-2005 and it-2004.
func Figure4(opts Opts) (*Table, error) {
	w := newWorkload(opts)
	t := &Table{
		Title:  "Figure 4: Inter-node scalability of Pregel+ and MND-MST (AMD cluster; simulated seconds)",
		Header: []string{"Graph", "Nodes", "Pregel+", "MND-MST"},
	}
	machine := cost.AMDCluster()
	for _, name := range table4Graphs {
		el, err := w.get(name)
		if err != nil {
			return nil, err
		}
		for _, p := range nodeCounts {
			b, err := w.runBSP(el, p, machine)
			if err != nil {
				return nil, err
			}
			m, err := w.runMND(el, p, machine, hypar.DefaultConfig(), false)
			if err != nil {
				return nil, err
			}
			t.AddRow(name, fmt.Sprintf("%d", p),
				fsec(b.Report.ExecutionTime()), fsec(m.Report.ExecutionTime()))
		}
	}
	t.AddNote("paper: single-node MND-MST beats 16-node Pregel+ on arabic-2005")
	return t, nil
}

// Figure5 regenerates the computation-vs-communication split of both
// systems at 4, 8 and 16 nodes.
func Figure5(opts Opts) (*Table, error) {
	w := newWorkload(opts)
	t := &Table{
		Title:  "Figure 5: Computation vs communication (AMD cluster; fraction of execution time)",
		Header: []string{"Graph", "Nodes", "Pregel+ comp", "Pregel+ comm", "MND comp", "MND comm"},
	}
	machine := cost.AMDCluster()
	for _, name := range table4Graphs {
		el, err := w.get(name)
		if err != nil {
			return nil, err
		}
		for _, p := range []int{4, 8, 16} {
			b, err := w.runBSP(el, p, machine)
			if err != nil {
				return nil, err
			}
			m, err := w.runMND(el, p, machine, hypar.DefaultConfig(), false)
			if err != nil {
				return nil, err
			}
			be := b.Report.ExecutionTime()
			me := m.Report.ExecutionTime()
			t.AddRow(name, fmt.Sprintf("%d", p),
				fpct(b.Report.ComputeTime()/be), fpct(b.Report.CommTime()/be),
				fpct(m.Report.ComputeTime()/me), fpct(m.Report.CommTime()/me))
		}
	}
	t.AddNote("paper @16n: Pregel+ ~75%% comm / 25-32%% comp; MND-MST 62-75%% comp")
	return t, nil
}

// figure6Graphs are the CPU-only Cray scalability graphs.
var figure6Graphs = []string{"road_usa", "gsh-2015-tpd", "sk-2005", "uk-2007"}

// Figure6 regenerates the CPU-only MND-MST scalability on the Cray.
func Figure6(opts Opts) (*Table, error) {
	w := newWorkload(opts)
	t := &Table{
		Title:  "Figure 6: Scalability of CPU-only MND-MST on Cray (simulated seconds)",
		Header: append([]string{"Nodes"}, figure6Graphs...),
	}
	machine := cost.CrayXC40()
	times := map[string]map[int]float64{}
	for _, name := range figure6Graphs {
		el, err := w.get(name)
		if err != nil {
			return nil, err
		}
		times[name] = map[int]float64{}
		for _, p := range nodeCounts {
			res, err := w.runMND(el, p, machine, hypar.DefaultConfig(), false)
			if err != nil {
				return nil, err
			}
			times[name][p] = res.Report.ExecutionTime()
		}
	}
	for _, p := range nodeCounts {
		row := []string{fmt.Sprintf("%d", p)}
		for _, name := range figure6Graphs {
			row = append(row, fsec(times[name][p]))
		}
		t.AddRow(row...)
	}
	for _, name := range []string{"sk-2005", "uk-2007"} {
		t.AddNote("%s speedup vs 4 nodes: 8n=%s 16n=%s (paper: sk 1.31x/1.9x, uk 1.54x/2.11x)",
			name, fx(times[name][4]/times[name][8]), fx(times[name][4]/times[name][16]))
	}
	t.AddNote("paper: road_usa slows down at higher node counts; gsh-2015 dips at 4 nodes then recovers")
	return t, nil
}

// figure7Graphs are the phase-breakdown graphs.
var figure7Graphs = []string{"road_usa", "gsh-2015-tpd", "uk-2007"}

// Figure7 regenerates the per-phase execution time breakdown.
func Figure7(opts Opts) (*Table, error) {
	w := newWorkload(opts)
	t := &Table{
		Title:  "Figure 7: Execution time per phase, CPU-only MND-MST on Cray (simulated seconds)",
		Header: []string{"Graph", "Nodes", "indComp", "comm(+merge)", "postProcess"},
	}
	machine := cost.CrayXC40()
	for _, name := range figure7Graphs {
		el, err := w.get(name)
		if err != nil {
			return nil, err
		}
		for _, p := range nodeCounts {
			res, err := w.runMND(el, p, machine, hypar.DefaultConfig(), false)
			if err != nil {
				return nil, err
			}
			indC, _ := res.Report.PhaseTime(core.PhaseIndComp)
			mergeC, mergeM := res.Report.PhaseTime(core.PhaseMerge)
			postC, _ := res.Report.PhaseTime(core.PhasePostProcess)
			t.AddRow(name, fmt.Sprintf("%d", p), fsec(indC), fsec(mergeC+mergeM), fsec(postC))
		}
	}
	t.AddNote("paper: uk-2007 dominated by indComp; road_usa/gsh rely increasingly on postProcess and communication at scale")
	return t, nil
}

// figure8Graphs are the hybrid CPU+GPU scalability graphs.
var figure8Graphs = []string{"it-2004", "sk-2005", "uk-2007"}

// Figure8 regenerates the CPU-only vs CPU+GPU comparison on the Cray.
func Figure8(opts Opts) (*Table, error) {
	w := newWorkload(opts)
	t := &Table{
		Title:  "Figure 8: MND-MST CPU-only vs CPU+GPU on Cray (simulated seconds)",
		Header: []string{"Graph", "Nodes", "CPU-only", "CPU+GPU", "GPU benefit"},
	}
	machine := cost.CrayXC40()
	for _, name := range figure8Graphs {
		el, err := w.get(name)
		if err != nil {
			return nil, err
		}
		for _, p := range nodeCounts {
			cpuRes, err := w.runMND(el, p, machine, hypar.DefaultConfig(), false)
			if err != nil {
				return nil, err
			}
			gpuRes, err := w.runMND(el, p, machine, hypar.DefaultConfig(), true)
			if err != nil {
				return nil, err
			}
			tc := cpuRes.Report.ExecutionTime()
			tg := gpuRes.Report.ExecutionTime()
			t.AddRow(name, fmt.Sprintf("%d", p), fsec(tc), fsec(tg), fpct((tc-tg)/tc))
		}
	}
	t.AddNote("paper: up to 23%% improvement, average 9%%; benefit shrinks as per-node indComp work shrinks")
	return t, nil
}

// ExtensionMultiGPU sweeps the per-node accelerator count on the largest
// graph — the "multiple devices on multiple nodes" generality the paper's
// framework claims, beyond the single K40 of its testbed.
func ExtensionMultiGPU(opts Opts) (*Table, error) {
	w := newWorkload(opts)
	el, err := w.get("uk-2007")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Extension: accelerators per node (uk-2007, 4 nodes, Cray)",
		Header: []string{"GPUs/node", "Exe", "vs CPU-only"},
	}
	machine := cost.CrayXC40()
	base := 0.0
	for _, k := range []int{0, 1, 2, 4} {
		cfg := hypar.DefaultConfig()
		cfg.GPUsPerNode = k
		res, err := w.runMND(el, 4, machine, cfg, k > 0)
		if err != nil {
			return nil, err
		}
		exe := res.Report.ExecutionTime()
		if k == 0 {
			base = exe
		}
		t.AddRow(fmt.Sprintf("%d", k), fsec(exe), fpct((base-exe)/base))
	}
	t.AddNote("returns diminish: the CPU-run merge phases and communication are unaffected by extra accelerators")
	return t, nil
}

// ExtensionHeterogeneous compares speed-aware and speed-blind partitioning
// on a cluster with one straggler node — an extension beyond the paper's
// homogeneous assumption (§4.3.1).
func ExtensionHeterogeneous(opts Opts) (*Table, error) {
	w := newWorkload(opts)
	el, err := w.get("it-2004")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Extension: heterogeneous cluster, one 4x-slower node (it-2004, 4 nodes)",
		Header: []string{"Partitioning", "Exe"},
	}
	machine := cost.AMDCluster()
	machine.NodeSpeeds = []float64{0.25, 1, 1, 1}
	for _, blind := range []bool{true, false} {
		cfg := hypar.DefaultConfig()
		cfg.IgnoreNodeSpeeds = blind
		res, err := w.runMND(el, 4, machine, cfg, false)
		if err != nil {
			return nil, err
		}
		name := "speed-aware"
		if blind {
			name = "speed-blind"
		}
		t.AddRow(name, fsec(res.Report.ExecutionTime()))
	}
	t.AddNote("the straggler sets the makespan unless the partitioner shrinks its share")
	return t, nil
}

// ExtensionApplications profiles the other graph applications built on the
// same substrate (§6 future work): connected components over the MND
// pipeline vs the superstep-synchronous BFS, SSSP and PageRank.
func ExtensionApplications(opts Opts) (*Table, error) {
	w := newWorkload(opts)
	el, err := w.get("arabic-2005")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Extension: framework applications (arabic-2005, 8 nodes)",
		Header: []string{"Application", "Exe", "Comm", "Comm frac", "Msgs"},
	}
	machine := cost.AMDCluster()
	add := func(name string, rep interface {
		ExecutionTime() float64
		CommTime() float64
		TotalMsgs() int64
	}) {
		exe := rep.ExecutionTime()
		t.AddRow(name, fsec(exe), fsec(rep.CommTime()), fpct(rep.CommTime()/exe),
			fmt.Sprintf("%d", rep.TotalMsgs()))
	}
	cc, err := apps.ConnectedComponents(el, 8, machine, hypar.DefaultConfig())
	if err != nil {
		return nil, err
	}
	add("connected-components (D&C)", cc.Report)
	bfs, err := apps.BFS(el, 8, machine, 0)
	if err != nil {
		return nil, err
	}
	add("BFS (level-sync)", bfs.Report)
	sp, err := apps.SSSP(el, 8, machine, 0)
	if err != nil {
		return nil, err
	}
	add("SSSP (Bellman-Ford)", sp.Report)
	pr, err := apps.PageRank(el, 8, machine, 0.85, 1e-7, 30)
	if err != nil {
		return nil, err
	}
	add("PageRank (30 it max)", pr.Report)
	col, err := apps.Coloring(el, 8, machine, 1)
	if err != nil {
		return nil, err
	}
	add("JP coloring", col.Report)
	t.AddNote("only the divide-and-conquer application escapes the per-superstep synchronization cost")
	return t, nil
}

// ExtensionWeakScaling grows the workload with the node count (fixed edges
// per node) and reports parallel efficiency — the weak-scaling view the
// paper's strong-scaling tables leave out.
func ExtensionWeakScaling(opts Opts) (*Table, error) {
	t := &Table{
		Title:  "Extension: weak scaling (web graph, 400k edges per node, AMD cluster)",
		Header: []string{"Nodes", "|V|", "|E|", "Exe", "Efficiency"},
	}
	machine := cost.AMDCluster()
	const vPerNode = 20_000
	base := 0.0
	for _, p := range nodeCounts {
		v := int32(float64(vPerNode*p) * opts.scale())
		if v < 64 {
			v = 64
		}
		el := gen.WebGraph(v, int(v)*20, 0.85, int64(300+p))
		res, err := core.Run(el, p, machine, hypar.DefaultConfig(), false)
		if err != nil {
			return nil, err
		}
		if opts.Verify {
			if err := core.VerifyAgainstOracle(el, res); err != nil {
				return nil, err
			}
		}
		exe := res.Report.ExecutionTime()
		if p == 1 {
			base = exe
		}
		t.AddRow(fmt.Sprintf("%d", p), fmt.Sprintf("%d", el.N), fmt.Sprintf("%d", len(el.Edges)),
			fsec(exe), fpct(base/exe))
	}
	t.AddNote("ideal weak scaling holds execution time flat (efficiency 100%%) as work and nodes grow together")
	return t, nil
}

// All runs every table and figure in paper order.
func All(opts Opts) ([]*Table, error) {
	type exp struct {
		name string
		fn   func(Opts) (*Table, error)
	}
	exps := []exp{
		{"Table2", Table2}, {"Table3", Table3}, {"Table4", Table4},
		{"Figure4", Figure4}, {"Figure5", Figure5}, {"Figure6", Figure6},
		{"Figure7", Figure7}, {"Figure8", Figure8},
	}
	var out []*Table
	for _, e := range exps {
		t, err := e.fn(opts)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.name, err)
		}
		out = append(out, t)
	}
	return out, nil
}
