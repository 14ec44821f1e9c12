package dsu

import (
	"sync/atomic"

	"mndmst/internal/parutil"
)

// Concurrent is a lock-free disjoint-set forest over int32 elements. Find
// performs wait-free path reads with best-effort compression via CAS;
// Hook attaches one root under another with CAS, the primitive GPU Boruvka
// implementations use for component merging. After a round of hooks,
// Flatten performs the pointer-jumping pass that collapses every tree to
// depth one, exactly as in the kernels of §3.5.
type Concurrent struct {
	parent []atomic.Int32
}

// NewConcurrent creates a concurrent DSU over n singleton elements.
func NewConcurrent(n int) *Concurrent {
	c := &Concurrent{parent: make([]atomic.Int32, n)}
	parutil.For(n, 1<<14, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.parent[i].Store(int32(i))
		}
	})
	return c
}

// Len reports the number of elements.
func (c *Concurrent) Len() int { return len(c.parent) }

// Reset returns every element to a singleton set.
func (c *Concurrent) Reset() {
	parutil.For(len(c.parent), 1<<14, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.parent[i].Store(int32(i))
		}
	})
}

// Find returns the current root of x. Concurrent hooks may move the root;
// callers that need a stable answer synchronize externally (the kernels
// call Find only between phases or idempotently).
func (c *Concurrent) Find(x int32) int32 {
	for {
		p := c.parent[x].Load()
		if p == x {
			return x
		}
		gp := c.parent[p].Load()
		if gp == p {
			return p
		}
		// Path halving: splice x up one level; harmless if it races.
		c.parent[x].CompareAndSwap(p, gp)
		x = gp
	}
}

// Hook makes root a child of under, succeeding only if a is still a root.
// Returns true on success. Symmetry breaking (e.g. only hooking the larger
// root under the smaller) is the caller's responsibility.
func (c *Concurrent) Hook(a, under int32) bool {
	return c.parent[a].CompareAndSwap(a, under)
}

// TryUnion merges the sets of a and b lock-free, retrying through races. It
// returns the surviving root and true if a merge happened, or the common
// root and false if they were already joined. Roots are ordered so the
// smaller id wins, giving deterministic representatives.
func (c *Concurrent) TryUnion(a, b int32) (root int32, merged bool) {
	for {
		ra, rb := c.Find(a), c.Find(b)
		if ra == rb {
			return ra, false
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		if c.Hook(rb, ra) {
			return ra, true
		}
	}
}

// Flatten collapses every tree to depth one by parallel pointer jumping.
// Must not run concurrently with hooks.
func (c *Concurrent) Flatten() {
	parutil.For(len(c.parent), 1<<13, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x := int32(i)
			r := x
			for {
				p := c.parent[r].Load()
				if p == r {
					break
				}
				r = p
			}
			c.parent[x].Store(r)
		}
	})
}

// Parent returns the current parent pointer of x (not necessarily the
// root).
func (c *Concurrent) Parent(x int32) int32 { return c.parent[x].Load() }

// CountSets returns the number of roots. Call after Flatten (or any
// quiescent point) for an exact answer.
func (c *Concurrent) CountSets() int {
	return int(parutil.CountIf(len(c.parent), 1<<13, func(i int) bool {
		return c.parent[i].Load() == int32(i)
	}))
}
