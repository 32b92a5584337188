package storage

import (
	"slices"
	"testing"
)

// TestDeltaCacheDeterministicAccounting drives a fixed access script
// and asserts the exact hit/miss/evict ledger: the cache's behavior is
// a pure function of the access sequence, so the ledger is part of the
// deterministic-run contract.
func TestDeltaCacheDeterministicAccounting(t *testing.T) {
	const mb = 1 << 20
	c := NewDeltaCache(10*mb, nil)

	// Fill: A(4) B(4) — fits. C(4) evicts A (LRU). Touch B, add D(4):
	// evicts C (B was refreshed). Get A misses (evicted), Get B hits.
	c.Put(1, 4*mb) // A
	c.Put(2, 4*mb) // B
	c.Put(3, 4*mb) // C evicts A
	if c.Contains(1) {
		t.Fatal("A should be the LRU eviction victim")
	}
	if _, ok := c.Get(2); !ok { // refresh B
		t.Fatal("B must be resident")
	}
	c.Put(4, 4*mb) // D evicts C
	if c.Contains(3) {
		t.Fatal("C should be evicted after B's refresh")
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("A was evicted")
	}
	if _, ok := c.Get(4); !ok {
		t.Fatal("D must be resident")
	}

	st := c.Stats()
	want := CacheStats{
		Hits: 2, Misses: 1,
		HitBytes:  8 * mb,
		Evictions: 2, EvictedBytes: 8 * mb,
	}
	if st != want {
		t.Fatalf("ledger drifted:\n got %+v\nwant %+v", st, want)
	}
	if c.Used() != 8*mb || c.Len() != 2 {
		t.Fatalf("resident %d bytes / %d entries", c.Used(), c.Len())
	}
	if got := c.HitRatio(); got != 2.0/3.0 {
		t.Fatalf("hit ratio %v", got)
	}

	// Replaying the identical script must produce the identical ledger.
	c2 := NewDeltaCache(10*mb, nil)
	c2.Put(1, 4*mb)
	c2.Put(2, 4*mb)
	c2.Put(3, 4*mb)
	c2.Get(2)
	c2.Put(4, 4*mb)
	c2.Get(1)
	c2.Get(4)
	if c2.Stats() != st {
		t.Fatalf("same script, different ledger:\n got %+v\nwant %+v", c2.Stats(), st)
	}
}

// TestDeltaCachePinsSharedEpochs proves refcount-aware eviction: a
// segment referenced by more than one live lineage (a fan-out's shared
// chain prefix) is pinned and never evicted, while admissions that
// cannot fit past the pinned set are rejected rather than forced.
func TestDeltaCachePinsSharedEpochs(t *testing.T) {
	const mb = 1 << 20
	refs := map[Addr]int{1: 3, 2: 1} // addr 1 shared by 3 branches
	c := NewDeltaCache(8*mb, func(a Addr) int { return refs[a] })

	c.Put(1, 6*mb) // pinned (refs 3)
	c.Put(2, 2*mb) // evictable
	refs[3] = 1
	c.Put(3, 2*mb) // must evict 2, not the pinned 1
	if !c.Contains(1) {
		t.Fatal("shared (pinned) segment was evicted")
	}
	if c.Contains(2) {
		t.Fatal("the unpinned LRU entry should have been evicted")
	}
	// 6 MB pinned + 2 MB resident: a 4 MB admission cannot fit without
	// touching the pin — it must be rejected, never forced, and the
	// hopeless attempt must not evict the resident working set either.
	refs[4] = 1
	evictionsBefore := c.Stats().Evictions
	c.Put(4, 4*mb)
	if c.Contains(4) {
		t.Fatal("admission past the pinned set must be rejected")
	}
	if c.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", c.Stats().Rejected)
	}
	if !c.Contains(3) || c.Stats().Evictions != evictionsBefore {
		t.Fatal("a rejected admission must not evict resident entries")
	}
	// Once the sharing ends (branches released), the pin lifts.
	refs[1] = 1
	refs[5] = 1
	c.Put(5, 7*mb)
	if !c.Contains(5) || c.Contains(1) {
		t.Fatal("unpinned entry should be evictable after the sharing ends")
	}
}

// TestDeltaCacheExpiresGCdSegments: a cached segment whose address was
// garbage-collected from every chain (refcount zero) is dropped at the
// next lookup instead of served.
func TestDeltaCacheExpiresGCdSegments(t *testing.T) {
	refs := map[Addr]int{7: 1}
	c := NewDeltaCache(1<<30, func(a Addr) int { return refs[a] })
	c.Put(7, 1<<20)
	if _, ok := c.Get(7); !ok {
		t.Fatal("live segment must hit")
	}
	refs[7] = 0 // the last branch released it
	if _, ok := c.Get(7); ok {
		t.Fatal("GC'd segment must not be served")
	}
	if c.Contains(7) {
		t.Fatal("GC'd segment must leave the cache")
	}
	if c.Stats().Expired != 1 {
		t.Fatalf("expired = %d, want 1", c.Stats().Expired)
	}
}

// TestCacheEvictionNeverDropsChainData: the cache holds copies — LRU
// eviction of every cacheable entry must leave each live lineage's
// replay byte-identical, because the authoritative epochs stay in the
// chain store (and on its mirroring backend).
func TestCacheEvictionNeverDropsChainData(t *testing.T) {
	cs := NewChainStore()
	be := NewRemoteTier()
	cs.Mirror(be, nil)
	// A deliberately tiny cache: every commit evicts the previous one.
	c := NewDeltaCache(BlockSize*2, cs.Refs)

	l := cs.NewLineage(3)
	for i := int64(0); i < 8; i++ {
		e := l.Commit(runFrom([]Block{{i, i + 1}, {50 + i, i + 9}}), 1)
		segs := l.Segments()
		c.Put(segs[len(segs)-1].Addr, e.DiskBytes())
	}
	want := l.Materialize()

	// Thrash the cache: everything cacheable has been evicted at least
	// once by now. Replay must still reconstruct every block, because
	// eviction touched only cache copies.
	if c.Stats().Evictions == 0 {
		t.Fatal("the script should have forced evictions")
	}
	if got := l.Materialize(); !slices.Equal(got, want) {
		t.Fatalf("replay %v, want %v", got, want)
	}
	// And every chain segment is still resident on the authoritative
	// tier, whatever the cache evicted.
	for _, seg := range l.Segments() {
		if !be.Has(seg.Addr) {
			t.Fatalf("segment %v evicted from the cache is gone from the backend too", seg.Addr)
		}
	}
}
