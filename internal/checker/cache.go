package checker

import (
	"sync"
	"sync/atomic"
)

// decisionCache is a sharded, bounded, approximately-LRU cache of
// decision templates. Reads take only a shard RLock plus one atomic
// store, so concurrent sessions hitting warm templates never contend
// on a single mutex; writes lock one shard. Eviction is sampled LRU
// (Redis-style): when a shard is full, a handful of entries are
// sampled and the least recently used one is dropped — bounded memory
// without a global list to serialize on.
type decisionCache struct {
	perShard int           // capacity per shard
	clock    atomic.Uint64 // global recency counter
	shards   [cacheShards]cacheShard
}

const (
	cacheShards        = 16
	evictionSampleSize = 5
)

type cacheShard struct {
	mu sync.RWMutex
	m  map[string]*cacheEntry
}

type cacheEntry struct {
	d    Decision      // Views copied on the way in and out; see GetBytes/Put
	used atomic.Uint64 // last-touch tick from decisionCache.clock
}

// newDecisionCache builds a cache holding at most total entries
// overall (rounded up to a multiple of the shard count).
func newDecisionCache(total int) *decisionCache {
	per := (total + cacheShards - 1) / cacheShards
	if per < 1 {
		per = 1
	}
	c := &decisionCache{perShard: per}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*cacheEntry)
	}
	return c
}

// shard picks the shard for a key (FNV-1a), held as a string or still
// as scratch bytes: both probes of one key agree.
func shard[K string | []byte](c *decisionCache, key K) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h%cacheShards]
}

// GetBytes probes with the key still in a scratch buffer — the map
// lookup uses the compiler's no-copy []byte→string indexing, so a warm
// probe allocates nothing. The key is compared in full: two different
// keys never share an entry. copyViews true returns a defensive copy of
// Views (cached templates are shared across principals, and a caller
// mutating d.Views must not corrupt later hits); false returns the
// cache-owned slice (borrowed: read-only, stable until ResetCache).
func (c *decisionCache) GetBytes(key []byte, copyViews bool) (Decision, bool) {
	sh := shard(c, key)
	sh.mu.RLock()
	e, ok := sh.m[string(key)]
	sh.mu.RUnlock()
	if !ok {
		return Decision{}, false
	}
	e.used.Store(c.clock.Add(1))
	d := e.d
	if copyViews && len(d.Views) > 0 {
		d.Views = append([]string(nil), d.Views...)
	}
	return d, true
}

// Put stores a decision template, copying its Views so the caller's
// slice stays private, and evicts a sampled-LRU victim if the shard
// is at capacity.
func (c *decisionCache) Put(key string, d Decision) {
	if len(d.Views) > 0 {
		d.Views = append([]string(nil), d.Views...)
	}
	sh := shard(c, key)
	sh.mu.Lock()
	if _, exists := sh.m[key]; !exists && len(sh.m) >= c.perShard {
		// Sample a few entries (map iteration order is pseudorandom)
		// and drop the least recently used.
		var victim string
		var oldest uint64
		n := 0
		for k, e := range sh.m {
			if u := e.used.Load(); n == 0 || u < oldest {
				victim, oldest = k, u
			}
			n++
			if n >= evictionSampleSize {
				break
			}
		}
		delete(sh.m, victim)
	}
	e := &cacheEntry{d: d}
	e.used.Store(c.clock.Add(1))
	sh.m[key] = e
	sh.mu.Unlock()
}

// Len reports the number of cached templates.
func (c *decisionCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
