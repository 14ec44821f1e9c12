package mndmst

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestFindMSFContextMatchesPlain checks the context entry point returns
// exactly the plain FindMSF result when the context never fires.
func TestFindMSFContextMatchesPlain(t *testing.T) {
	g := GenerateRoadNetwork(2_000, 7)
	opts := Options{Nodes: 4}
	want, err := FindMSF(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FindMSFContext(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalWeight != want.TotalWeight || len(got.EdgeIDs) != len(want.EdgeIDs) {
		t.Fatalf("context run differs: weight %d/%d, edges %d/%d",
			got.TotalWeight, want.TotalWeight, len(got.EdgeIDs), len(want.EdgeIDs))
	}
	if err := Verify(g, got); err != nil {
		t.Fatal(err)
	}
}

// TestFindMSFContextCanceled checks an already-dead context is rejected
// before any work starts, for both MSF entry points.
func TestFindMSFContextCanceled(t *testing.T) {
	g := GenerateRoadNetwork(500, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FindMSFContext(ctx, g, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FindMSFContext error = %v, want context.Canceled", err)
	}
	if _, err := FindMSFBSPContext(ctx, g, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FindMSFBSPContext error = %v, want context.Canceled", err)
	}
}

// TestFindMSFContextDeadline checks a mid-flight deadline surfaces as
// DeadlineExceeded rather than a hang, even though the abandoned
// computation finishes in the background.
func TestFindMSFContextDeadline(t *testing.T) {
	g := GenerateWebGraph(40_000, 900_000, 0.8, 11)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	start := time.Now() //lint:wallclock bounding a real cancellation latency, not simulated time
	_, err := FindMSFContext(ctx, g, Options{Nodes: 8})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second { //lint:wallclock bounding a real cancellation latency, not simulated time
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestGraphDigest pins the public digest surface: stable across calls,
// format-prefixed, distinct for distinct content.
func TestGraphDigest(t *testing.T) {
	a := GenerateRoadNetwork(1_000, 7)
	if a.Digest() != a.Digest() {
		t.Fatal("digest is not deterministic")
	}
	if !strings.HasPrefix(a.Digest(), "sha256:") {
		t.Fatalf("digest %q lacks the scheme prefix", a.Digest())
	}
	b := GenerateRoadNetwork(1_000, 8)
	if a.Digest() == b.Digest() {
		t.Fatal("different graphs share a digest")
	}
	c := GenerateRoadNetwork(1_000, 7)
	if a.Digest() != c.Digest() {
		t.Fatal("regenerated identical graph digests differently")
	}
}

// TestOptionsFingerprint pins fingerprint semantics: default normalization,
// sensitivity to every result-relevant knob, and insensitivity to transport
// plumbing.
func TestOptionsFingerprint(t *testing.T) {
	if got, want := (Options{}).Fingerprint(), (Options{Nodes: 1, GroupSize: 4}).Fingerprint(); got != want {
		t.Fatalf("zero options fingerprint %q != normalized default %q", got, want)
	}
	base := Options{Nodes: 4}.Fingerprint()
	distinct := []Options{
		{Nodes: 8},
		{Nodes: 4, Machine: CrayXC40},
		{Nodes: 4, Machine: CrayXC40, UseGPU: true},
		{Nodes: 4, GroupSize: 8},
		{Nodes: 4, Exception: BorderEdge},
		{Nodes: 4, DiminishingTermination: true},
		{Nodes: 4, TopologyDriven: true},
		{Nodes: 4, Contraction: true},
		{Nodes: 4, NodeSpeeds: []float64{1, 1, 2, 1}},
	}
	seen := map[string]bool{base: true}
	for _, o := range distinct {
		fp := o.Fingerprint()
		if seen[fp] {
			t.Fatalf("options %+v collide on fingerprint %q", o, fp)
		}
		seen[fp] = true
	}
	// Transport/Cluster/Chaos cannot change the answer and must not split
	// the result cache.
	plumbed := Options{Nodes: 4, Cluster: &ClusterConfig{Coordinator: "x:1"}, Chaos: &ChaosConfig{Seed: 9}}
	if plumbed.Fingerprint() != base {
		t.Fatalf("execution plumbing leaked into the fingerprint: %q", plumbed.Fingerprint())
	}
}
