package dsu

import (
	"math/rand"
	"mndmst/internal/testutil"
	"sync"
	"testing"
	"testing/quick"
)

func TestConcurrentSingletons(t *testing.T) {
	c := NewConcurrent(8)
	if c.Len() != 8 {
		t.Fatalf("len=%d", c.Len())
	}
	for i := int32(0); i < 8; i++ {
		if c.Find(i) != i {
			t.Fatalf("Find(%d)=%d", i, c.Find(i))
		}
	}
	if c.CountSets() != 8 {
		t.Fatalf("sets=%d", c.CountSets())
	}
}

func TestConcurrentTryUnionDeterministicRoot(t *testing.T) {
	c := NewConcurrent(4)
	root, merged := c.TryUnion(3, 1)
	if !merged || root != 1 {
		t.Fatalf("root=%d merged=%v; smaller id should win", root, merged)
	}
	root, merged = c.TryUnion(3, 1)
	if merged || root != 1 {
		t.Fatalf("second union root=%d merged=%v", root, merged)
	}
}

func TestConcurrentHookOnlyOnRoots(t *testing.T) {
	c := NewConcurrent(3)
	if !c.Hook(2, 1) {
		t.Fatal("hooking a root should succeed")
	}
	if c.Hook(2, 0) {
		t.Fatal("hooking a non-root should fail")
	}
}

func TestConcurrentFlattenDepthOne(t *testing.T) {
	const n = 5000
	c := NewConcurrent(n)
	for i := int32(1); i < n; i++ {
		c.TryUnion(i-1, i)
	}
	c.Flatten()
	for i := int32(0); i < n; i++ {
		p := c.Parent(i)
		if c.Parent(p) != p {
			t.Fatalf("element %d not depth-1 after Flatten (parent %d, grandparent %d)", i, p, c.Parent(p))
		}
	}
	if c.CountSets() != 1 {
		t.Fatalf("sets=%d want 1", c.CountSets())
	}
	if p := c.Parent(n - 1); p != 0 {
		t.Fatalf("parent of %d = %d, want root 0", n-1, p)
	}
}

func TestConcurrentParallelUnionsMatchSequential(t *testing.T) {
	const n = 20_000
	// Build a random edge set; union it both sequentially and concurrently
	// and compare the resulting partitions.
	rng := testutil.Rand(t, 42)
	type edge struct{ a, b int32 }
	edges := make([]edge, 3*n)
	for i := range edges {
		edges[i] = edge{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}

	seq := New(n)
	for _, e := range edges {
		seq.Union(e.a, e.b)
	}

	con := NewConcurrent(n)
	var wg sync.WaitGroup
	const workers = 8
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(edges); i += workers {
				con.TryUnion(edges[i].a, edges[i].b)
			}
		}(w)
	}
	wg.Wait()
	con.Flatten()

	if got, want := con.CountSets(), countSets(seq); got != want {
		t.Fatalf("concurrent sets=%d sequential sets=%d", got, want)
	}
	// Same partition: representative-to-representative mapping must be a
	// bijection consistent across all elements.
	seqToCon := make(map[int32]int32)
	conToSeq := make(map[int32]int32)
	for i := int32(0); i < n; i++ {
		s, c := seq.Find(i), con.Find(i)
		if prev, ok := seqToCon[s]; ok && prev != c {
			t.Fatalf("element %d: seq root %d maps to both %d and %d", i, s, prev, c)
		}
		if prev, ok := conToSeq[c]; ok && prev != s {
			t.Fatalf("element %d: con root %d maps to both %d and %d", i, c, prev, s)
		}
		seqToCon[s] = c
		conToSeq[c] = s
	}
}

func TestConcurrentReset(t *testing.T) {
	c := NewConcurrent(4)
	c.TryUnion(3, 0)
	if c.Find(3) != 0 {
		t.Fatalf("Find(3)=%d", c.Find(3))
	}
	c.Reset()
	if c.Find(3) != 3 || c.CountSets() != 4 {
		t.Fatal("reset failed")
	}
}

func TestConcurrentPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		c := NewConcurrent(n)
		d := New(n)
		for op := 0; op < 100; op++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			_, cm := c.TryUnion(a, b)
			dm := d.Union(a, b)
			if cm != dm {
				return false
			}
		}
		c.Flatten()
		for x := int32(0); x < int32(n); x++ {
			for y := int32(0); y < int32(n); y++ {
				if (c.Find(x) == c.Find(y)) != d.Same(x, y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, testutil.Quick(t, 1, 30)); err != nil {
		t.Fatal(err)
	}
}
