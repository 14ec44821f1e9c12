package serve

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mndmst"
	"mndmst/internal/obs"
)

// TestRegistryCachesByDigest: repeated resolves of one spec load once;
// the second is a hit on the same in-memory graph.
func TestRegistryCachesByDigest(t *testing.T) {
	r := newRegistry("", 256<<20, obs.NewRegistry())
	spec := GraphSpec{Profile: "road_usa", Scale: 0.02}
	g1, d1, err := r.resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	g2, d2, err := r.resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 || d1 != d2 {
		t.Fatal("second resolve did not reuse the cached graph")
	}
	if !strings.HasPrefix(d1, "sha256:") {
		t.Fatalf("digest %q", d1)
	}
	var st Stats
	r.fill(&st)
	if st.GraphCacheLoads != 1 || st.GraphCacheHits != 1 || st.GraphsCached != 1 {
		t.Fatalf("stats: %d loads, %d hits, %d cached (want 1, 1, 1)",
			st.GraphCacheLoads, st.GraphCacheHits, st.GraphsCached)
	}
}

// TestRegistrySharesContentAcrossSpecs: a profile spec and a .mnd file
// holding the identical content collapse to one cache entry.
func TestRegistrySharesContentAcrossSpecs(t *testing.T) {
	dir := t.TempDir()
	g, err := mndmst.GenerateProfile("road_usa", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if err := mndmst.SaveGraph(filepath.Join(dir, "g.mnd"), g); err != nil {
		t.Fatal(err)
	}

	r := newRegistry(dir, 256<<20, obs.NewRegistry())
	_, d1, err := r.resolve(GraphSpec{Profile: "road_usa", Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	gFile, d2, err := r.resolve(GraphSpec{Path: "g.mnd"})
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digests diverge: %s vs %s", d1, d2)
	}
	var st Stats
	r.fill(&st)
	// Both specs loaded (content addressing is only known post-load), but
	// the duplicate decode was dropped: one resident entry.
	if st.GraphsCached != 1 {
		t.Fatalf("%d graphs cached (want 1)", st.GraphsCached)
	}
	// And the resident copy is the first one loaded.
	g3, _, err := r.resolve(GraphSpec{Path: "g.mnd"})
	if err != nil {
		t.Fatal(err)
	}
	if g3 != gFile {
		t.Fatal("file spec no longer resolves to the shared entry")
	}
}

// TestRegistryChargesCSRBytes: a resident graph is charged for its edge
// list and for the CSR it keeps after its first job, so the byte bound
// covers both.
func TestRegistryChargesCSRBytes(t *testing.T) {
	dir := t.TempDir()
	g, err := mndmst.NewGraph(5, []mndmst.Edge{{U: 0, V: 1, Weight: 3}, {U: 1, V: 2, Weight: 1}, {U: 3, V: 3, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := mndmst.SaveGraph(filepath.Join(dir, "g.mnd"), g); err != nil {
		t.Fatal(err)
	}
	r := newRegistry(dir, 256<<20, obs.NewRegistry())
	if _, _, err := r.resolve(GraphSpec{Path: "g.mnd"}); err != nil {
		t.Fatal(err)
	}
	var st Stats
	r.fill(&st)
	// 3 edges * 24 B of edge list + 6 arcs * 16 B + 5 vertices * 8 B of
	// CSR + a 64 B header.
	if want := int64(3*24 + 6*16 + 5*8 + 64); st.GraphCacheBytes != want {
		t.Fatalf("graph charged %d bytes, want %d", st.GraphCacheBytes, want)
	}
}

// TestRegistryEvictsLRU: the byte bound evicts the least recently used
// graph but always retains the most recent one, even oversized.
func TestRegistryEvictsLRU(t *testing.T) {
	r := newRegistry("", 1, obs.NewRegistry()) // absurdly small: every second graph evicts the first
	specA := GraphSpec{Profile: "road_usa", Scale: 0.02}
	specB := GraphSpec{Profile: "road_usa", Scale: 0.03}
	if _, _, err := r.resolve(specA); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.resolve(specB); err != nil {
		t.Fatal(err)
	}
	var st Stats
	r.fill(&st)
	if st.GraphsCached != 1 || st.GraphCacheEvictions != 1 {
		t.Fatalf("stats: %d cached, %d evictions (want 1, 1)", st.GraphsCached, st.GraphCacheEvictions)
	}
	// A comes back via a fresh load, not a hit.
	if _, _, err := r.resolve(specA); err != nil {
		t.Fatal(err)
	}
	r.fill(&st)
	if st.GraphCacheLoads != 3 || st.GraphCacheHits != 0 {
		t.Fatalf("stats: %d loads, %d hits (want 3, 0)", st.GraphCacheLoads, st.GraphCacheHits)
	}
}

// TestRegistryCoalescesConcurrentLoads: N concurrent resolves of a cold
// spec perform one load.
func TestRegistryCoalescesConcurrentLoads(t *testing.T) {
	r := newRegistry("", 256<<20, obs.NewRegistry())
	spec := GraphSpec{Profile: "road_usa", Scale: 0.02}
	const n = 8
	graphs := make([]*mndmst.Graph, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			graphs[i], _, errs[i] = r.resolve(spec)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if graphs[i] != graphs[0] {
			t.Fatal("concurrent resolves returned distinct graphs")
		}
	}
	var st Stats
	r.fill(&st)
	if st.GraphCacheLoads != 1 {
		t.Fatalf("%d loads for %d concurrent resolves (want 1)", st.GraphCacheLoads, n)
	}
}

// TestRegistryPathSandbox: file specs may not escape the graph directory
// and are disabled entirely without one.
func TestRegistryPathSandbox(t *testing.T) {
	for _, spec := range []GraphSpec{
		{Path: "../../etc/passwd"},
		{Path: "/etc/passwd"},
		{Path: "sub/../../escape.mnd"},
		{Text: "../w.txt"},
	} {
		if _, err := spec.canonicalKey("/tmp/graphs"); err == nil {
			t.Errorf("%+v accepted", spec)
		}
	}
	// No directory configured: all file specs rejected, even safe ones.
	if _, err := (GraphSpec{Path: "g.mnd"}).canonicalKey(""); err == nil {
		t.Error("file spec accepted without a graph directory")
	}
	// A safe relative path inside the sandbox is fine.
	if _, err := (GraphSpec{Path: "sub/g.mnd"}).canonicalKey("/tmp/graphs"); err != nil {
		t.Errorf("safe path rejected: %v", err)
	}
}

// TestRegistryTextGraphs: text specs load SNAP-style lists relative to
// the directory, keyed by (path, seed).
func TestRegistryTextGraphs(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "g.txt"), []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := newRegistry(dir, 256<<20, obs.NewRegistry())
	_, d1, err := r.resolve(GraphSpec{Text: "g.txt", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, d2, err := r.resolve(GraphSpec{Text: "g.txt", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatal("different weight seeds produced identical content digests")
	}
	// A load failure is not cached: the error surfaces every time.
	if _, _, err := r.resolve(GraphSpec{Text: "missing.txt"}); err == nil {
		t.Fatal("missing file resolved")
	}
	if _, _, err := r.resolve(GraphSpec{Text: "missing.txt"}); err == nil {
		t.Fatal("missing file resolved on retry")
	}
}
