package serve

import (
	"fmt"
	"time"

	"mndmst"
	"mndmst/internal/trace"
)

// Systems a job may request. SystemMND is the paper's algorithm (the
// default), SystemBSP the Pregel+-style baseline, SystemSeq the
// single-threaded filter-Kruskal ground truth.
const (
	SystemMND = "mnd"
	SystemBSP = "bsp"
	SystemSeq = "seq"
)

// GraphSpec names the input graph of a job. Exactly one of Profile, Path,
// Text must be set. File-based specs resolve relative to the server's
// configured graph directory and may not escape it.
type GraphSpec struct {
	// Profile generates one of the paper's Table 2 workload analogues at
	// Scale (default 1.0).
	Profile string  `json:"profile,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	// Path loads a binary .mnd container (written by graphgen/SaveGraph).
	Path string `json:"path,omitempty"`
	// Text loads a SNAP-style text edge list; Seed draws weights for
	// inputs without them.
	Text string `json:"text,omitempty"`
	Seed int64  `json:"seed,omitempty"`
}

// OptionSpec is the wire form of the result-relevant mndmst.Options.
type OptionSpec struct {
	Nodes                  int       `json:"nodes,omitempty"`
	Machine                string    `json:"machine,omitempty"` // "amd" (default) | "cray"
	GPU                    bool      `json:"gpu,omitempty"`
	GPUsPerNode            int       `json:"gpus,omitempty"`
	GroupSize              int       `json:"group,omitempty"`
	Exception              string    `json:"exception,omitempty"` // "border-vertex" (default) | "border-edge"
	DiminishingTermination bool      `json:"diminishing_termination,omitempty"`
	TopologyDriven         bool      `json:"topology_driven,omitempty"`
	Contraction            bool      `json:"contraction,omitempty"`
	GPUShare               float64   `json:"gpu_share,omitempty"`
	NodeSpeeds             []float64 `json:"node_speeds,omitempty"`
}

// options translates the wire form, rejecting unknown enum values.
func (o OptionSpec) options() (mndmst.Options, error) {
	opts := mndmst.Options{
		Nodes:                  o.Nodes,
		UseGPU:                 o.GPU,
		GPUsPerNode:            o.GPUsPerNode,
		GroupSize:              o.GroupSize,
		DiminishingTermination: o.DiminishingTermination,
		TopologyDriven:         o.TopologyDriven,
		Contraction:            o.Contraction,
		GPUShare:               o.GPUShare,
		NodeSpeeds:             o.NodeSpeeds,
	}
	switch o.Machine {
	case "", "amd":
		opts.Machine = mndmst.AMDCluster
	case "cray":
		opts.Machine = mndmst.CrayXC40
	default:
		return opts, fmt.Errorf("serve: unknown machine %q (want amd or cray)", o.Machine)
	}
	switch o.Exception {
	case "", "border-vertex":
		opts.Exception = mndmst.BorderVertex
	case "border-edge":
		opts.Exception = mndmst.BorderEdge
	default:
		return opts, fmt.Errorf("serve: unknown exception condition %q (want border-vertex or border-edge)", o.Exception)
	}
	if len(o.NodeSpeeds) > 0 && o.Nodes > 0 && len(o.NodeSpeeds) != o.Nodes {
		return opts, fmt.Errorf("serve: node_speeds has %d entries for %d nodes", len(o.NodeSpeeds), o.Nodes)
	}
	return opts, nil
}

// JobRequest is one job submission, the POST /v1/jobs body.
type JobRequest struct {
	Graph   GraphSpec  `json:"graph"`
	System  string     `json:"system,omitempty"` // mnd (default) | bsp | seq
	Options OptionSpec `json:"options,omitempty"`
	// TimeoutMillis bounds the job from admission (queue wait included);
	// 0 uses the server default. The server may cap it.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// MaxAttempts overrides the server's retry budget for this job: the
	// total number of executions (first try included) allowed when
	// attempts fail with transient errors. 0 uses the server default;
	// 1 disables retry. Retries always honour TimeoutMillis.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// IncludeEdges asks for the forest edge ids in the result record.
	IncludeEdges bool `json:"include_edges,omitempty"`
	// IncludeTrace asks for the per-rank trace records of the run.
	IncludeTrace bool `json:"include_trace,omitempty"`
	// Wait makes POST /v1/jobs block until the job finishes instead of
	// returning 202 immediately.
	Wait bool `json:"wait,omitempty"`
}

// maxAttemptsCap bounds a client-requested retry budget: past a handful
// of attempts the fault is not transient, it is the configuration.
const maxAttemptsCap = 16

// resolve validates the request's system and options.
func (r JobRequest) resolve() (system string, opts mndmst.Options, err error) {
	system = r.System
	if system == "" {
		system = SystemMND
	}
	switch system {
	case SystemMND, SystemBSP, SystemSeq:
	default:
		return "", opts, fmt.Errorf("serve: unknown system %q (want mnd, bsp, or seq)", r.System)
	}
	if r.TimeoutMillis < 0 {
		return "", opts, fmt.Errorf("serve: negative timeout_ms %d", r.TimeoutMillis)
	}
	if r.MaxAttempts < 0 || r.MaxAttempts > maxAttemptsCap {
		return "", opts, fmt.Errorf("serve: max_attempts %d out of range [0, %d]", r.MaxAttempts, maxAttemptsCap)
	}
	opts, err = r.Options.options()
	return system, opts, err
}

// Record is the machine-readable result of one MSF computation — the one
// schema shared by the HTTP API and `mndmst -json`, so scripted clients
// read CLI and server output identically.
type Record struct {
	GraphDigest        string `json:"graph_digest"`
	Vertices           int    `json:"vertices"`
	Edges              int    `json:"edges"`
	System             string `json:"system"`
	OptionsFingerprint string `json:"options_fingerprint"`

	ForestEdges int    `json:"forest_edges"`
	Components  int    `json:"components"`
	TotalWeight uint64 `json:"total_weight"`

	SimSeconds     float64 `json:"sim_seconds"`
	ComputeSeconds float64 `json:"compute_seconds"`
	CommSeconds    float64 `json:"comm_seconds"`
	BytesSent      int64   `json:"bytes_sent"`
	MessagesSent   int64   `json:"messages_sent"`
	WallSeconds    float64 `json:"wall_seconds,omitempty"`

	// Degraded marks a result computed by the local single-node fallback
	// after the job's distributed attempts exhausted on rank loss: the
	// forest is still exact (the plumbing is not fingerprint-relevant),
	// but the run did not execute on the requested cluster.
	Degraded bool `json:"degraded,omitempty"`

	// EdgeIDs are the forest edge indices, present only when requested.
	EdgeIDs []int32 `json:"edge_ids,omitempty"`
}

// NewRecord builds the shared result record from a computed result.
// The graph digest is recomputed; callers that already hold it should
// use newRecord.
func NewRecord(g *mndmst.Graph, system string, opts mndmst.Options, res *mndmst.Result) Record {
	return newRecord(g, g.Digest(), system, opts, res)
}

func newRecord(g *mndmst.Graph, digest, system string, opts mndmst.Options, res *mndmst.Result) Record {
	return Record{
		GraphDigest:        digest,
		Vertices:           g.NumVertices(),
		Edges:              g.NumEdges(),
		System:             system,
		OptionsFingerprint: opts.Fingerprint(),
		ForestEdges:        len(res.EdgeIDs),
		Components:         res.Components,
		TotalWeight:        res.TotalWeight,
		SimSeconds:         res.SimSeconds,
		ComputeSeconds:     res.ComputeSeconds,
		CommSeconds:        res.CommSeconds,
		BytesSent:          res.BytesSent,
		MessagesSent:       res.MessagesSent,
		WallSeconds:        res.WallSeconds,
		EdgeIDs:            res.EdgeIDs,
	}
}

// JobStatus is the wire view of a job, returned by POST /v1/jobs and
// GET /v1/jobs/{id}.
type JobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	CacheHit  bool   `json:"cache_hit,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	// Attempts counts executions started for this job (1 = no retry;
	// omitted while still queued). Degraded mirrors Record.Degraded so a
	// status poll shows the fallback without fetching the result.
	Attempts int    `json:"attempts,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
	// QueueSeconds is the admission-to-start wait; RunSeconds the
	// execution time (both real wall-clock, 0 while not yet applicable).
	QueueSeconds float64 `json:"queue_seconds"`
	RunSeconds   float64 `json:"run_seconds,omitempty"`

	Result *Record        `json:"result,omitempty"`
	Trace  []trace.Record `json:"trace,omitempty"`
}

// Status snapshots the job for the wire, honouring the request's
// IncludeEdges/IncludeTrace choices.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     string(j.state),
		CacheHit:  j.cacheHit,
		Coalesced: j.coalesced,
		Attempts:  j.attempts,
		Degraded:  j.degraded,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	switch {
	case !j.started.IsZero():
		st.QueueSeconds = j.started.Sub(j.submitted).Seconds()
	case !j.finished.IsZero(): // canceled while queued
		st.QueueSeconds = j.finished.Sub(j.submitted).Seconds()
	default:
		st.QueueSeconds = time.Since(j.submitted).Seconds()
	}
	if !j.started.IsZero() && !j.finished.IsZero() {
		st.RunSeconds = j.finished.Sub(j.started).Seconds()
	}
	if j.result != nil {
		rec := j.result.rec
		if j.req.IncludeEdges {
			rec.EdgeIDs = unpackForest(j.result.forest, rec.ForestEdges)
		}
		st.Result = &rec
		if j.req.IncludeTrace {
			st.Trace = j.result.traceRecs
		}
	}
	return st
}
