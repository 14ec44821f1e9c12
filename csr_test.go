package mndmst

import (
	"context"
	"slices"
	"sync"
	"testing"

	"mndmst/internal/graph"
)

// TestConcurrentFindMSFSharesOneCSR: goroutines racing on one fresh Graph
// through FindMSF and FindMSFContext all get the oracle's forest and all
// read the one CSR the first call built. Run it under -race.
func TestConcurrentFindMSFSharesOneCSR(t *testing.T) {
	g := GenerateWebGraph(3_000, 24_000, 0.8, 5)
	if g.csrG != nil {
		t.Fatal("generator built the CSR before any run")
	}
	want := FindMSFSequential(g)
	const callers = 6
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]*Result, callers)
	errs := make([]error, callers)
	csrs := make([]*graph.CSR, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			opts := Options{Nodes: 1 + i%4}
			if i%2 == 0 {
				results[i], errs[i] = FindMSF(g, opts)
			} else {
				results[i], errs[i] = FindMSFContext(context.Background(), g, opts)
			}
			csrs[i], _ = g.csr()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if res.TotalWeight != want.TotalWeight || !slices.Equal(res.EdgeIDs, want.EdgeIDs) {
			t.Fatalf("caller %d: forest differs from the oracle's", i)
		}
		if csrs[i] == nil || csrs[i] != csrs[0] {
			t.Fatalf("caller %d read CSR %p, caller 0 read %p", i, csrs[i], csrs[0])
		}
	}
	built := csrs[0]
	if _, err := FindMSF(g, Options{Nodes: 2}); err != nil {
		t.Fatal(err)
	}
	if csr, _ := g.csr(); csr != built {
		t.Fatal("a later run rebuilt the CSR")
	}
}
