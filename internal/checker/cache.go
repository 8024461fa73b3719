package checker

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/obsv"
)

// decisionCache is a sharded, bounded, approximately-LRU cache of
// decision templates. Reads take only a shard RLock plus one atomic
// store; writes lock one shard. Eviction is sampled LRU (Redis-style):
// when a shard is full, a handful of entries are sampled and the least
// recently used one is dropped — bounded memory without a global list
// to serialize on.
//
// A full shard admits only keys that come back (TinyLFU's doorkeeper,
// Einziger et al. 2017): a key it does not hold is stored only if its
// hash was offered once already since the shard's doorkeeper was last
// cleared. A first sighting records the hash and stores, evicts and
// allocates nothing — most cold decisions carry a constant no later
// query repeats, and storing them costs about as much as deciding them.
type decisionCache struct {
	perShard int           // capacity per shard
	clock    atomic.Uint64 // global recency counter
	shards   [cacheShards]cacheShard
	// entries counts the resident entries (checker.cache.entries): +1
	// where one is stored beside the others, -1 where one is dropped.
	entries *obsv.Counter
}

const (
	shardBits          = 4
	cacheShards        = 1 << shardBits
	evictionSampleSize = 5

	// The doorkeeper holds doorBitsPerEntry bits per shard entry, sets
	// two of them per recorded hash, and is cleared after
	// doorClearAfter x perShard recordings: at most about 5 % of
	// one-off keys then pass as if seen before, which only stores them.
	doorBitsPerEntry = 32
	doorClearAfter   = 4
)

type cacheShard struct {
	mu sync.RWMutex
	m  map[string]*cacheEntry
	// door is the shard's admission filter, guarded by mu like m:
	// recently offered key hashes, nil until the shard first fills.
	door     []uint64
	recorded int // hashes recorded in door since it was last cleared
}

type cacheEntry struct {
	d    Decision      // Views copied on the way in and out; see GetBytes/Put
	used atomic.Uint64 // last-touch tick from decisionCache.clock
}

// newDecisionCache builds a cache holding at most total entries
// overall (rounded up to a multiple of the shard count), counting them
// in entries.
func newDecisionCache(total int, entries *obsv.Counter) *decisionCache {
	per := (total + cacheShards - 1) / cacheShards
	if per < 1 {
		per = 1
	}
	c := &decisionCache{perShard: per, entries: entries}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*cacheEntry)
	}
	return c
}

// keyHash is the key's FNV-1a hash. Its top bits pick the shard
// (shardOf) and the doorkeeper's probes (seen): FNV-1a mixes every byte
// into its high bits, while its low bits see only the low bits of each
// byte, so keys whose ids step by two would reach half the shards.
func keyHash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

func (c *decisionCache) shardOf(h uint64) *cacheShard { return &c.shards[h>>(64-shardBits)] }

// GetBytes probes with the key still in a scratch buffer — the map
// lookup uses the compiler's no-copy []byte→string indexing, so a warm
// probe allocates nothing. The key is compared in full: two different
// keys never share an entry. copyViews true returns a defensive copy of
// Views (cached templates are shared across principals, and a caller
// mutating d.Views must not corrupt later hits); false returns the
// cache-owned slice (borrowed: read-only, stable until ResetCache).
func (c *decisionCache) GetBytes(key []byte, copyViews bool) (Decision, bool) {
	sh := c.shardOf(keyHash(key))
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

// Put offers a decision template and reports whether it was stored.
// A shard with room stores it; a full one stores it only at its second
// sighting (see decisionCache), evicting a sampled-LRU victim. The key
// and Views are copied only when the template is stored, so the
// caller's scratch and slice stay private.
func (c *decisionCache) Put(key []byte, d Decision) bool {
	h := keyHash(key)
	sh := c.shardOf(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, exists := sh.m[string(key)]
	if !exists && len(sh.m) >= c.perShard {
		if !sh.seen(h, c.perShard) {
			return false
		}
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
		c.entries.Add(-1)
	}
	if !exists {
		c.entries.Inc()
	}
	if len(d.Views) > 0 {
		d.Views = append([]string(nil), d.Views...)
	}
	e := &cacheEntry{d: d}
	e.used.Store(c.clock.Add(1))
	sh.m[string(key)] = e
	return true
}

// seen reports whether the doorkeeper has recorded h since it was last
// cleared, recording it if not. For a doorkeeper of 2^k bits its two
// bit positions are the two k-bit fields of h below the shard's bits.
func (sh *cacheShard) seen(h uint64, perShard int) bool {
	if sh.door == nil {
		words := 1
		for words*64 < perShard*doorBitsPerEntry {
			words *= 2
		}
		sh.door = make([]uint64, words)
	}
	k := bits.TrailingZeros(uint(len(sh.door) * 64))
	x := h << shardBits
	p, q := x>>(64-k), x<<k>>(64-k)
	if sh.door[p/64]&(1<<(p%64)) != 0 && sh.door[q/64]&(1<<(q%64)) != 0 {
		return true
	}
	if sh.recorded >= doorClearAfter*perShard {
		clear(sh.door)
		sh.recorded = 0
	}
	sh.door[p/64] |= 1 << (p % 64)
	sh.door[q/64] |= 1 << (q % 64)
	sh.recorded++
	return false
}

// dropEpochs deletes every entry decided under an epoch live does not
// accept. Keys begin with their deciding epoch (appendCacheKey), so a
// policy swap can free the capacity its dead entries hold — without
// this a full cache would make the new policy's first decisions wait
// for a second sighting behind entries that can never match again.
func (c *decisionCache) dropEpochs(live func(epoch uint64) bool) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k := range sh.m {
			if len(k) < 8 || !live(binary.BigEndian.Uint64([]byte(k[:8]))) {
				delete(sh.m, k)
				c.entries.Add(-1)
			}
		}
		sh.mu.Unlock()
	}
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
