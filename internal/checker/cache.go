package checker

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obsv"
)

// decisionCache is a sharded, bounded, approximately-LRU cache of
// decision templates, one entry per template identity (the
// history-free key, appendCacheKey). An entry holds the template's
// history-free verdict and the history-dependent allows decided under
// it, each beside its justification (cacheEntry). Reads take only a
// shard RLock plus one atomic store; writes lock one shard. Eviction
// is sampled LRU (Redis-style): when a shard is full, a handful of
// entries are sampled and the least recently used one is dropped —
// bounded memory without a global list to serialize on.
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

// cacheEntry is one template's cached decisions. Views are copied on
// the way in (Put, Justify) and, unless borrowed, on the way out.
type cacheEntry struct {
	// d is the template's history-free verdict: an allow, which holds
	// under every trace, or a denial, the marker that the template needs
	// facts.
	d Decision
	// just lists allows decided on facts, oldest first, at most
	// maxJustified. Justify replaces the list whole under the shard's
	// write lock; probes load it without a lock.
	just atomic.Pointer[[]justified]
	used atomic.Uint64 // last-touch tick from decisionCache.clock
}

// justified is an allow decided on facts, under its justification J:
// the interned ids (factID) of the session-generalized facts its cover
// used, sorted. The cover over J alone decides d, and coverage is
// monotone in the facts, so d answers every check of the template whose
// usable facts include J.
type justified struct {
	ids []uint64
	d   Decision
}

// maxJustified bounds the allows an entry keeps under justifications.
const maxJustified = 4

// justifiedBy returns the first allow whose justification is among ids,
// the session's usable facts, or nil. It renders, sorts and allocates
// nothing: J is a handful of ids, each looked up by a scan.
func (e *cacheEntry) justifiedBy(ids []uint64) *justified {
	p := e.just.Load()
	if p == nil {
		return nil
	}
	for i := range *p {
		if j := &(*p)[i]; subset(j.ids, ids) {
			return j
		}
	}
	return nil
}

// subset reports whether every id of j is in ids.
func subset(j, ids []uint64) bool {
	for _, x := range j {
		if !slices.Contains(ids, x) {
			return false
		}
	}
	return true
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

// keyHash is the key's FNV-1a hash, finished by MurmurHash3's 64-bit
// mixer. Its top bits pick the shard (shardOf) and the doorkeeper's
// probes (seen). FNV-1a's low bits see only the low bits of each byte,
// and the last bytes reach its top bits only through carries, so keys
// that differ in a trailing id would crowd a few shards; the mixer
// spreads every bit over all of them.
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
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

func (c *decisionCache) shardOf(h uint64) *cacheShard { return &c.shards[h>>(64-shardBits)] }

// Get returns the entry under key, or nil. It probes with the key
// still in a scratch buffer — the map lookup uses the compiler's
// no-copy []byte→string indexing, so a warm probe allocates nothing.
// The key is compared in full: two different keys never share an
// entry. The entry's decisions are shared across principals: a caller
// hands out a copy of their Views (hitDecision) or borrows them
// read-only, stable until ResetCache.
func (c *decisionCache) Get(key []byte) *cacheEntry {
	sh := c.shardOf(keyHash(key))
	sh.mu.RLock()
	e := sh.m[string(key)]
	sh.mu.RUnlock()
	if e != nil {
		e.used.Store(c.clock.Add(1))
	}
	return e
}

// Put offers a template's history-free verdict and returns the entry
// holding it, or nil when admission declined it. A key already held
// keeps its entry, with the allows stored under it: the verdict is a
// function of the key. A shard with room stores; a full one stores only
// at the key's second sighting (see decisionCache), evicting a
// sampled-LRU victim. The key and Views are copied only when the
// template is stored, so the caller's scratch and slice stay private.
func (c *decisionCache) Put(key []byte, d Decision) *cacheEntry {
	h := keyHash(key)
	sh := c.shardOf(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.m[string(key)]; e != nil {
		e.used.Store(c.clock.Add(1))
		return e
	}
	if len(sh.m) >= c.perShard {
		if !sh.seen(h, c.perShard) {
			return nil
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
	c.entries.Inc()
	e := &cacheEntry{d: ownViews(d)}
	e.used.Store(c.clock.Add(1))
	sh.m[string(key)] = e
	return e
}

// Justify stores an allow decided on facts under its justification ids
// (sorted) in the entry under key, dropping the entry's oldest allow
// past maxJustified, and reports whether an entry was there to take it.
// ids are copied.
func (c *decisionCache) Justify(key []byte, ids []uint64, d Decision) bool {
	sh := c.shardOf(keyHash(key))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.m[string(key)]
	if e == nil {
		return false
	}
	var old []justified
	if p := e.just.Load(); p != nil {
		old = *p
	}
	for i := range old {
		if slices.Equal(old[i].ids, ids) {
			return true // a concurrent decision of the same check stored it
		}
	}
	if len(old) == maxJustified {
		old = old[1:]
	}
	list := append(slices.Clip(old), justified{ids: slices.Clone(ids), d: ownViews(d)})
	e.just.Store(&list)
	return true
}

// ownViews returns d with its own copy of Views.
func ownViews(d Decision) Decision {
	if len(d.Views) > 0 {
		d.Views = append([]string(nil), d.Views...)
	}
	return d
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
