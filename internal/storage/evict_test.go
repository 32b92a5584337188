package storage

import (
	"math/rand"
	"slices"
	"testing"
)

// scanCache is the reference for DeltaCache's admission decisions: the
// same LRU, whose feasibility check sums every unpinned entry before it
// evicts anything.
type scanCache struct {
	capacity int64
	refs     func(Addr) int
	lru      []cacheEntry // oldest first
	stats    CacheStats
}

func (r *scanCache) used() int64 {
	var u int64
	for _, e := range r.lru {
		u += e.bytes
	}
	return u
}

func (r *scanCache) find(a Addr) int {
	return slices.IndexFunc(r.lru, func(e cacheEntry) bool { return e.addr == a })
}

func (r *scanCache) touch(i int) {
	e := r.lru[i]
	r.lru = append(slices.Delete(r.lru, i, i+1), e)
}

func (r *scanCache) get(a Addr) {
	i := r.find(a)
	if i >= 0 && r.refs(a) == 0 {
		r.lru = slices.Delete(r.lru, i, i+1)
		r.stats.Expired++
		i = -1
	}
	if i < 0 {
		r.stats.Misses++
		return
	}
	r.stats.Hits++
	r.stats.HitBytes += r.lru[i].bytes
	r.touch(i)
}

func (r *scanCache) put(a Addr, n int64) {
	if i := r.find(a); i >= 0 {
		r.lru[i].bytes = n
		r.touch(i)
		r.evictFor(0)
		return
	}
	if !r.evictFor(n) {
		r.stats.Rejected++
		return
	}
	r.lru = append(r.lru, cacheEntry{addr: a, bytes: n})
}

func (r *scanCache) evictFor(n int64) bool {
	used := r.used()
	if used+n <= r.capacity {
		return true
	}
	var evictable int64
	for _, e := range r.lru {
		if r.refs(e.addr) <= 1 {
			evictable += e.bytes
		}
	}
	if used-evictable+n > r.capacity {
		return false
	}
	kept := r.lru[:0]
	for _, e := range r.lru {
		if used+n > r.capacity && r.refs(e.addr) <= 1 {
			used -= e.bytes
			r.stats.Evictions++
			r.stats.EvictedBytes += e.bytes
			continue
		}
		kept = append(kept, e)
	}
	r.lru = kept
	return used+n <= r.capacity
}

// TestEvictForMatchesFullScan drives DeltaCache and the full-scan
// reference through the same random puts, refreshes, lookups and
// reference-count changes, with pinned (shared) and expired entries
// throughout: every admission, rejection and eviction must match, and
// so must the resident entries in LRU order.
func TestEvictForMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		refs := make(map[Addr]int)
		refOf := func(a Addr) int { return refs[a] }
		capacity := int64(20+rng.Intn(80)) << 10
		c := NewDeltaCache(capacity, refOf)
		r := &scanCache{capacity: capacity, refs: refOf}
		for op := 0; op < 3000; op++ {
			a := Addr(rng.Intn(40))
			switch k := rng.Intn(10); {
			case k < 5:
				n := int64(1+rng.Intn(24)) << 10
				if rng.Intn(40) == 0 {
					n = capacity + 1<<10 // never fits
				}
				c.Put(a, n)
				r.put(a, n)
			case k < 8:
				c.Get(a)
				r.get(a)
			default:
				// 0 expires the entry, 1 is one lineage, 2-3 pin it.
				refs[a] = rng.Intn(4)
			}
			var got []cacheEntry
			for i := c.slots[0].prev; i != 0; i = c.slots[i].prev {
				got = append(got, cacheEntry{addr: c.slots[i].addr, bytes: c.slots[i].bytes})
			}
			if c.Stats() != r.stats || c.Used() != r.used() || !slices.Equal(got, r.lru) {
				t.Fatalf("seed %d op %d: cache %+v used %d entries %v; full scan %+v used %d entries %v",
					seed, op, c.Stats(), c.Used(), got, r.stats, r.used(), r.lru)
			}
		}
		if s := c.Stats(); s.Evictions == 0 || s.Rejected == 0 || s.Expired == 0 {
			t.Fatalf("seed %d: %+v; want evictions, rejections and expiries all exercised", seed, s)
		}
	}
}
