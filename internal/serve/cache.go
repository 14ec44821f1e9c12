package serve

import (
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"sync"

	"mndmst"
	"mndmst/internal/obs"
	"mndmst/internal/trace"
)

// cacheEntry is one computation outcome, immutable once built and shared
// by the result cache and every job it answers: the result record with
// its forest edge ids packed out of it, plus the per-rank trace records
// when the run produced a report.
type cacheEntry struct {
	rec       Record // EdgeIDs nil; forest holds them
	forest    []byte // packForest(EdgeIDs)
	traceRecs []trace.Record
}

// newCacheEntry builds the entry of a computed result and its record.
// Cached results and finished jobs keep their forests for their whole
// lifetime, so the forest is stored packed, at about a byte per edge
// instead of four.
func newCacheEntry(rec Record, res *mndmst.Result) *cacheEntry {
	ent := &cacheEntry{rec: rec, forest: packForest(rec.EdgeIDs)}
	ent.rec.EdgeIDs = nil
	if res.Trace != nil {
		ent.traceRecs = res.Trace.Records()
	}
	return ent
}

// record returns a copy of the full result record, forest included.
func (e *cacheEntry) record() *Record {
	rec := e.rec
	rec.EdgeIDs = unpackForest(e.forest, rec.ForestEdges)
	return &rec
}

// packForest delta-encodes forest edge ids as uvarints. Forests are
// ascending, so most gaps take one byte; gaps wrap at 32 bits, so any
// order round-trips. nil stays nil.
func packForest(ids []int32) []byte {
	if ids == nil {
		return nil
	}
	var tmp [binary.MaxVarintLen32]byte
	size, prev := 0, int32(0)
	for _, id := range ids {
		size += binary.PutUvarint(tmp[:], uint64(uint32(id-prev)))
		prev = id
	}
	buf, prev := make([]byte, 0, size), int32(0)
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(uint32(id-prev)))
		prev = id
	}
	return buf
}

// unpackForest decodes the n edge ids packForest packed into b.
func unpackForest(b []byte, n int) []int32 {
	if b == nil {
		return nil
	}
	ids := make([]int32, 0, n)
	var prev int32
	for len(b) > 0 {
		gap, k := binary.Uvarint(b)
		if k <= 0 {
			panic("serve: corrupt packed forest")
		}
		b = b[k:]
		prev += int32(uint32(gap))
		ids = append(ids, prev)
	}
	return ids
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
