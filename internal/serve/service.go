package serve

import (
	"sync/atomic"
	"time"
)

// Config parameterizes a batched service.
type Config struct {
	// CacheEntries bounds the single-flight LRU result cache
	// (default 4096). Set negative to disable caching.
	CacheEntries int
	// BatchWindow is how long a forming batch waits for more queries
	// after its first (default 100µs). Under saturation batches fill to
	// MaxBatch before the window expires, so the window only taxes idle
	// traffic.
	BatchWindow time.Duration
	// MaxBatch bounds one batch (default 128).
	MaxBatch int
	// Counters receives the service's metrics; nil allocates a private
	// set (reachable via Counters()).
	Counters *Counters
}

// StoreSource yields the current store snapshot. A bare *Store is its own
// (static) source; the Service implementations are live sources that follow
// Swap. HTTP handlers take a StoreSource so a long-lived server observes
// maintenance swaps without being rebuilt.
type StoreSource interface {
	Store() *Store
}

// Store returns the store itself: a *Store is a static StoreSource.
func (s *Store) Store() *Store { return s }

// Batched is the production Service: a single-flight LRU cache in front of a
// coalescing request batcher in front of the store. Identical concurrent
// queries cost one evaluation; distinct concurrent point queries against the
// same cuboid cost one index probe per batch.
//
// The served snapshot is swappable: Swap publishes a new store for all
// subsequent evaluations and then flushes the result cache, so no entry
// computed against the old snapshot outlives it (see Swap for the ordering
// argument).
type Batched struct {
	store   atomic.Pointer[Store]
	cache   *cache // nil when caching is disabled
	batcher *batcher
	metrics *Counters
}

var _ Service = (*Batched)(nil)
var _ StoreSource = (*Batched)(nil)

// NewService builds a batched service over a store.
func NewService(store *Store, cfg Config) *Batched {
	m := cfg.Counters
	if m == nil {
		m = &Counters{}
	}
	s := &Batched{metrics: m}
	s.store.Store(store)
	s.batcher = newBatcher(&s.store, cfg.BatchWindow, cfg.MaxBatch, m)
	if cfg.CacheEntries >= 0 {
		s.cache = newCache(cfg.CacheEntries, m)
	}
	return s
}

// Counters returns the service's metrics.
func (s *Batched) Counters() *Counters { return s.metrics }

// Store returns the currently served snapshot.
func (s *Batched) Store() *Store { return s.store.Load() }

// Swap atomically publishes a new snapshot and invalidates the result
// cache. The pointer is set BEFORE the flush, which makes stale entries
// impossible: every cache entry computed against the old store was inserted
// before the flush (insertion precedes evaluation, the batcher loads the
// store only after the query is in the cache) and is therefore removed by
// it, while any entry inserted after the flush was evaluated by a batch that
// loaded the store after the pointer moved. Post-Swap the cache can only
// hold new-snapshot results; readers in flight see one consistent snapshot
// or the other, never a mix.
func (s *Batched) Swap(store *Store) {
	s.store.Store(store)
	if s.cache != nil {
		s.cache.reset()
	}
	s.metrics.swap()
}

// Query answers one query through the cache and batcher.
func (s *Batched) Query(q Query) (Result, error) {
	if err := q.validate(s.store.Load().d); err != nil {
		s.metrics.queryError()
		return Result{}, err
	}
	s.metrics.query(q.Op)
	if q.Op == OpTopK && q.K == 0 {
		q.K = DefaultTopK // canonicalize so k=0 and k=DefaultTopK share a cache entry
	}
	if s.cache == nil {
		return s.batcher.do(q)
	}
	res, err := s.cache.do(cacheKey(q), func() (Result, error) {
		return s.batcher.do(q)
	})
	if err != nil {
		s.metrics.queryError()
	}
	return res, err
}

// Close stops the batcher; queries after Close return ErrClosed.
func (s *Batched) Close() error {
	s.batcher.close()
	return nil
}
