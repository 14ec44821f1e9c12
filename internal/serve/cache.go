package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"mndmst/internal/obs"
	"mndmst/internal/trace"
)

// cacheEntry is one cached computation outcome: the result record (always
// carrying the forest edge ids; views strip them) plus the per-rank trace
// records when the run produced a report.
type cacheEntry struct {
	rec       Record
	traceRecs []trace.Record
}

// resultSource says how a job's result was obtained.
type resultSource int

const (
	// srcComputed ran the algorithm (a cache miss).
	srcComputed resultSource = iota
	// srcHit was answered from the cache without waiting.
	srcHit
	// srcCoalesced shared an identical in-flight computation.
	srcCoalesced
)

// resultFlight is one in-flight computation awaited by coalesced jobs.
type resultFlight struct {
	done chan struct{}
	ent  *cacheEntry
	err  error
}

// resultCache memoizes computation outcomes keyed by
// (graph digest | system | options fingerprint) in a count-bounded LRU,
// with singleflight coalescing: while a key is being computed, identical
// requests wait for that one computation instead of starting their own.
// Errors are never cached — a failed computation leaves the key cold.
type resultCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element // key → element holding *cacheKeyed
	lru     *list.List
	flights map[string]*resultFlight

	// Traffic counters, read back by fill for /v1/stats.
	hits, misses, coalesced, evictions *obs.Counter
}

// cacheKeyed pairs a cache entry with its key for LRU eviction.
type cacheKeyed struct {
	key string
	ent *cacheEntry
}

// newResultCache builds an empty cache whose counters live in reg, which
// must be non-nil.
func newResultCache(max int, reg *obs.Registry) *resultCache {
	return &resultCache{
		max:     max,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		flights: make(map[string]*resultFlight),
		hits: reg.Counter("mndmst_serve_result_cache_hits_total",
			"jobs answered from the result cache without waiting"),
		misses: reg.Counter("mndmst_serve_result_cache_misses_total",
			"computations that actually ran the algorithm (cache misses)"),
		coalesced: reg.Counter("mndmst_serve_result_cache_coalesced_total",
			"jobs that joined an identical in-flight computation"),
		evictions: reg.Counter("mndmst_serve_result_cache_evictions_total",
			"result-cache entries evicted by the LRU bound"),
	}
}

// do returns the cached entry for key, joins an identical in-flight
// computation, or runs compute as the leader and caches its success.
// A coalesced waiter whose leader was canceled retries (and may become
// the new leader) as long as its own ctx is alive — one job's deadline
// must not fail a patient job that merely shared its flight.
func (c *resultCache) do(ctx context.Context, key string, compute func() (*cacheEntry, error)) (*cacheEntry, resultSource, error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.lru.MoveToFront(e)
			c.hits.Inc()
			ent := e.Value.(*cacheKeyed).ent
			c.mu.Unlock()
			return ent, srcHit, nil
		}
		if fl, ok := c.flights[key]; ok {
			c.coalesced.Inc()
			c.mu.Unlock()
			select {
			case <-fl.done:
				if fl.err == nil {
					return fl.ent, srcCoalesced, nil
				}
				if ctx.Err() == nil &&
					(errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded)) {
					continue // leader died of its own deadline; take over
				}
				return nil, srcCoalesced, fl.err
			case <-ctx.Done():
				return nil, srcCoalesced, ctx.Err()
			}
		}
		fl := &resultFlight{done: make(chan struct{})}
		c.flights[key] = fl
		c.mu.Unlock()

		ent, err := compute()
		fl.ent, fl.err = ent, err
		c.mu.Lock()
		delete(c.flights, key)
		if err == nil {
			c.misses.Inc()
			e := c.lru.PushFront(&cacheKeyed{key: key, ent: ent})
			c.entries[key] = e
			for c.lru.Len() > c.max {
				back := c.lru.Back()
				c.lru.Remove(back)
				delete(c.entries, back.Value.(*cacheKeyed).key)
				c.evictions.Inc()
			}
		}
		c.mu.Unlock()
		close(fl.done)
		if err != nil {
			return nil, srcComputed, err
		}
		return ent, srcComputed, nil
	}
}

// fill copies the cache counters into a stats snapshot.
func (c *resultCache) fill(st *Stats) {
	st.Computations = c.misses.Value()
	st.ResultCacheHits = c.hits.Value()
	st.ResultCacheCoalesced = c.coalesced.Value()
	c.mu.Lock()
	st.ResultCacheEntries = c.lru.Len()
	c.mu.Unlock()
}
