package storage

import "emucheck/internal/sim"

// DeltaCache is the node-local cache fronting the remote chain tier: a
// capacity-bounded LRU of content-addressed segments (base images and
// epoch deltas) kept on local media so hot restores do not re-stream
// over the control LAN.
//
// Eviction is refcount-aware. The cache consults the chain store's
// reference counts through its refs hook:
//
//   - A segment whose address is referenced by more than one live
//     lineage (a branch fan-out's shared prefix) is *pinned*: it is
//     the hottest possible entry — every sibling's restore replays it
//     — so LRU never evicts it while the sharing lasts.
//   - A segment with no remaining references was garbage-collected
//     from every chain; the cache drops it on the next lookup rather
//     than serving or retaining dead content.
//
// Evicting a live entry is always safe for correctness: the cache
// holds copies, the authoritative bytes stay on the storage tier (or
// the shared pool, for spilled segments), so eviction only costs a
// re-stream. Determinism: LRU order is a pure function of the access
// sequence, so same-seed runs produce identical hit/miss/evict
// ledgers.
type DeltaCache struct {
	// Capacity bounds the cached bytes.
	Capacity int64
	// Seek and Rate price a cache read (node-local media, same
	// defaults as the snapshot disk).
	Seek sim.Time
	Rate int64

	refs    func(Addr) int
	entries map[Addr]int32 // slot of each resident segment
	// slots is the recency list, linked by slot index: slot 0 is its
	// head (next: most recent, prev: least), a fresh entry links to
	// itself, and freed slots chain through next from free (0: none).
	slots []cacheEntry
	free  int32
	used  int64

	stats CacheStats
}

// cacheEntry is one resident segment.
type cacheEntry struct {
	addr       Addr
	bytes      int64
	prev, next int32
}

// CacheStats is the cache's accounting ledger.
type CacheStats struct {
	// Hits and Misses count lookups; HitBytes and MissBytes their
	// segment sizes.
	Hits, Misses        int64
	HitBytes, MissBytes int64
	// Evictions counts entries LRU-evicted to make room; EvictedBytes
	// their sizes.
	Evictions    int64
	EvictedBytes int64
	// Expired counts entries dropped because their segment was
	// garbage-collected from every chain (refcount zero).
	Expired int64
	// Rejected counts admissions refused because the pinned (shared)
	// entries alone exceed what eviction could free.
	Rejected int64
	// Warmed counts segments pre-seeded through WarmUp ahead of an
	// anticipated restore (cross-facility migration warm-up);
	// WarmedBytes their sizes. Warm-up admissions that are rejected
	// count under Rejected like any other Put.
	Warmed      int64
	WarmedBytes int64
}

// NewDeltaCache creates a cache of the given capacity. refs is the
// chain store's refcount lookup (ChainStore.Refs); nil disables
// pinning and expiry (a plain LRU).
func NewDeltaCache(capacity int64, refs func(Addr) int) *DeltaCache {
	return &DeltaCache{
		Capacity: capacity,
		Seek:     DefaultDiskSeek,
		Rate:     DefaultDiskRate,
		refs:     refs,
		entries:  make(map[Addr]int32),
		slots:    make([]cacheEntry, 1),
	}
}

// unlink takes slot i out of the recency list; toFront moves it to
// the front, as the most recently used entry.
func (c *DeltaCache) unlink(i int32) {
	e := c.slots[i]
	c.slots[e.prev].next, c.slots[e.next].prev = e.next, e.prev
}

func (c *DeltaCache) toFront(i int32) {
	c.unlink(i)
	next := c.slots[0].next
	c.slots[i].prev, c.slots[i].next = 0, next
	c.slots[next].prev, c.slots[0].next = i, i
}

// ReadCost prices serving n bytes off the cache's local media.
func (c *DeltaCache) ReadCost(n int64) sim.Time { return xferCost(n, c.Seek, c.Rate) }

// refcount resolves the chain store's view of an address.
func (c *DeltaCache) refcount(a Addr) int {
	if c.refs == nil {
		return 1
	}
	return c.refs(a)
}

// Get looks a segment up, counting the hit or miss. A hit refreshes
// the entry's recency and returns its size. An entry whose segment
// has been garbage-collected from every chain is dropped and counts
// as a miss — the cache never serves dead content.
func (c *DeltaCache) Get(a Addr) (int64, bool) {
	i, ok := c.entries[a]
	if ok && c.refcount(a) == 0 {
		c.remove(i)
		c.stats.Expired++
		ok = false
	}
	if !ok {
		c.stats.Misses++
		return 0, false
	}
	c.toFront(i)
	c.stats.Hits++
	c.stats.HitBytes += c.slots[i].bytes
	return c.slots[i].bytes, true
}

// MissBytes charges n bytes to the miss ledger — the caller's record
// of what a miss cost to re-stream.
func (c *DeltaCache) MissBytes(n int64) { c.stats.MissBytes += n }

// Contains reports presence without touching the ledgers or recency.
func (c *DeltaCache) Contains(a Addr) bool {
	_, ok := c.entries[a]
	return ok
}

// Put admits (or refreshes) a segment, evicting least-recently-used
// unpinned entries until it fits. Entries shared by more than one
// live lineage are pinned and skipped; if pinned entries alone leave
// no room, the admission is rejected (counted), never forced.
func (c *DeltaCache) Put(a Addr, n int64) {
	if n <= 0 {
		return
	}
	if i, ok := c.entries[a]; ok {
		c.used += n - c.slots[i].bytes
		c.slots[i].bytes = n
		c.toFront(i)
		c.evictFor(0)
		return
	}
	if !c.evictFor(n) {
		c.stats.Rejected++
		return
	}
	i := c.free
	if i == 0 {
		i = int32(len(c.slots))
		c.slots = append(c.slots, cacheEntry{}) // next 0: free stays empty
	}
	c.free = c.slots[i].next
	c.slots[i] = cacheEntry{addr: a, bytes: n, prev: i, next: i}
	c.toFront(i)
	c.entries[a] = i
	c.used += n
}

// WarmUp pre-seeds a segment ahead of an anticipated restore — the
// destination side of a cross-facility migration streams the parked
// tenant's chain into the local cache so the eventual restore hits
// instead of re-fetching from the shared pool. It admits through the
// same refcount-aware path as Put (pinned entries are never evicted
// to make room; an infeasible admission is rejected and counted, not
// forced) but books the bytes under the warm-up ledger rather than
// the demand-fetch one, and reports whether the segment is resident.
// A segment already resident is refreshed and still counts as warmed:
// the migration paid to ship it.
func (c *DeltaCache) WarmUp(a Addr, n int64) bool {
	if n <= 0 {
		return false
	}
	before := c.stats.Rejected
	c.Put(a, n)
	if c.stats.Rejected != before {
		return false
	}
	c.stats.Warmed++
	c.stats.WarmedBytes += n
	return true
}

// evictFor frees room for n more bytes, oldest-first, skipping pinned
// (shared) entries. It reports whether the bytes now fit. Feasibility
// is checked first: if evicting every unpinned entry still could not
// make room, the admission is hopeless and nothing is evicted — a
// rejected Put must not destroy the resident working set. The check
// walks from the oldest entry and stops once it has found enough
// unpinned bytes, which are the ones the eviction below takes.
func (c *DeltaCache) evictFor(n int64) bool {
	if c.used+n <= c.Capacity {
		return true
	}
	need := c.used + n - c.Capacity
	var evictable int64
	for i := c.slots[0].prev; i != 0 && evictable < need; i = c.slots[i].prev {
		if e := &c.slots[i]; c.refcount(e.addr) <= 1 {
			evictable += e.bytes
		}
	}
	if evictable < need {
		return false
	}
	for i := c.slots[0].prev; i != 0 && c.used+n > c.Capacity; {
		e := c.slots[i]
		if c.refcount(e.addr) > 1 {
			// Pinned: a shared chain epoch every sibling branch's
			// restore replays — never evicted while the sharing lasts.
			i = e.prev
			continue
		}
		c.remove(i)
		c.stats.Evictions++
		c.stats.EvictedBytes += e.bytes
		i = e.prev
	}
	return c.used+n <= c.Capacity
}

// remove drops slot i's entry from the table and the recency list and
// frees the slot.
func (c *DeltaCache) remove(i int32) {
	e := &c.slots[i]
	c.unlink(i)
	delete(c.entries, e.addr)
	c.used -= e.bytes
	e.next = c.free
	c.free = i
}

// Drop forgets a segment without counting an eviction (GC path).
func (c *DeltaCache) Drop(a Addr) {
	if i, ok := c.entries[a]; ok {
		c.remove(i)
	}
}

// Used reports the cached bytes.
func (c *DeltaCache) Used() int64 { return c.used }

// Len reports the resident entry count.
func (c *DeltaCache) Len() int { return len(c.entries) }

// Stats returns a snapshot of the accounting ledger.
func (c *DeltaCache) Stats() CacheStats { return c.stats }

// HitRatio reports hits / lookups (0 when never consulted).
func (c *DeltaCache) HitRatio() float64 {
	total := c.stats.Hits + c.stats.Misses
	if total == 0 {
		return 0
	}
	return float64(c.stats.Hits) / float64(total)
}
