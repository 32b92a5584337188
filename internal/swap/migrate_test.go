package swap

import (
	"testing"

	"emucheck/internal/storage"
)

// migChain builds a deterministic k-segment chain starting at addr
// base, commits it to the pool, and returns it.
func migChain(pool *storage.Tier, base uint64, k int, segBytes int64) []storage.Segment {
	var chain []storage.Segment
	for i := 0; i < k; i++ {
		seg := storage.Segment{Addr: storage.Addr(base + uint64(i)), Bytes: segBytes}
		pool.Put(seg.Addr, seg.Bytes)
		chain = append(chain, seg)
	}
	return chain
}

// TestWarmUpReducesRemoteBytes is the satellite coverage for cache
// warm-up on a cold node: pre-seeding the destination cache before a
// restore must strictly reduce remote_bytes versus a cold restore of
// the same chain.
func TestWarmUpReducesRemoteBytes(t *testing.T) {
	pool := storage.NewRemoteTier()
	chain := migChain(pool, 100, 6, 8<<20) // 48 MB chain
	total := ChainBytes(chain)

	// Cold destination: every segment streams from the pool.
	cold := storage.NewDeltaCache(256<<20, nil)
	_, coldRemote := RestoreChain(chain, cold, pool)
	if coldRemote != total {
		t.Fatalf("cold restore remote = %d, want full chain %d", coldRemote, total)
	}

	// Warmed destination: the migration shipped the chain ahead of the
	// restore, so the replay is served locally.
	warm := storage.NewDeltaCache(256<<20, nil)
	plan := PlanWarmUp(chain, warm)
	if len(plan) != len(chain) {
		t.Fatalf("cold-node plan has %d segments, want %d", len(plan), len(chain))
	}
	if admitted := WarmUp(plan, warm); admitted != total {
		t.Fatalf("warm-up admitted %d, want %d", admitted, total)
	}
	warmLocal, warmRemote := RestoreChain(chain, warm, pool)
	if warmRemote >= coldRemote {
		t.Fatalf("warm restore remote = %d, not strictly below cold %d", warmRemote, coldRemote)
	}
	if warmRemote != 0 || warmLocal != total {
		t.Fatalf("warm restore split local=%d remote=%d, want %d/0", warmLocal, warmRemote, total)
	}
	cs := warm.Stats()
	if cs.Warmed != int64(len(chain)) || cs.WarmedBytes != total {
		t.Fatalf("warm ledger = %d segs / %d bytes, want %d / %d", cs.Warmed, cs.WarmedBytes, len(chain), total)
	}
}

// TestWarmUpPartialCapacity: a warm-up that does not fit degrades to
// a partial one, and the restore's remote bytes still strictly drop.
func TestWarmUpPartialCapacity(t *testing.T) {
	pool := storage.NewRemoteTier()
	chain := migChain(pool, 200, 8, 4<<20) // 32 MB chain
	dst := storage.NewDeltaCache(12<<20, nil)

	admitted := WarmUp(PlanWarmUp(chain, dst), dst)
	if admitted <= 0 || admitted > 12<<20 {
		t.Fatalf("partial warm-up admitted %d", admitted)
	}
	_, remote := RestoreChain(chain, dst, pool)
	if remote >= ChainBytes(chain) {
		t.Fatalf("partial warm-up did not reduce remote bytes: %d", remote)
	}
}

// TestWarmUpNeverEvictsPinned: warming a chain into a cache whose
// resident set is pinned (refs>1, a shared branch prefix) must not
// evict the pinned entries — the warm-up is rejected instead.
func TestWarmUpNeverEvictsPinned(t *testing.T) {
	pool := storage.NewRemoteTier()
	pinned := storage.Addr(1)
	refs := func(a storage.Addr) int {
		if a == pinned {
			return 3 // shared by three live lineages
		}
		return 1
	}
	dst := storage.NewDeltaCache(10<<20, refs)
	dst.Put(pinned, 8<<20)
	if !dst.Contains(pinned) {
		t.Fatal("pinned entry not resident")
	}

	chain := migChain(pool, 300, 2, 6<<20) // needs 12 MB; only 2 MB unpinned room
	admitted := WarmUp(PlanWarmUp(chain, dst), dst)
	if admitted != 0 {
		t.Fatalf("warm-up admitted %d bytes despite pinned working set", admitted)
	}
	if !dst.Contains(pinned) {
		t.Fatal("warm-up evicted a pinned (refs>1) entry")
	}
	cs := dst.Stats()
	if cs.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", cs.Rejected)
	}
	if cs.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0", cs.Evictions)
	}
}

// TestPlanWarmUpSkipsResident: segments already at the destination are
// not re-shipped.
func TestPlanWarmUpSkipsResident(t *testing.T) {
	pool := storage.NewRemoteTier()
	chain := migChain(pool, 400, 4, 1<<20)
	dst := storage.NewDeltaCache(64<<20, nil)
	dst.Put(chain[1].Addr, chain[1].Bytes)
	dst.Put(chain[3].Addr, chain[3].Bytes)

	plan := PlanWarmUp(chain, dst)
	if len(plan) != 2 {
		t.Fatalf("plan has %d segments, want 2", len(plan))
	}
	if plan[0].Addr != chain[0].Addr || plan[1].Addr != chain[2].Addr {
		t.Fatalf("plan picked wrong segments: %+v", plan)
	}
}

// TestRestoreChainPanicsOnLostState: a restore of a segment absent
// from the authoritative pool is state loss and must panic.
func TestRestoreChainPanicsOnLostState(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("restore of pool-absent segment did not panic")
		}
	}()
	pool := storage.NewRemoteTier()
	cache := storage.NewDeltaCache(64<<20, nil)
	RestoreChain([]storage.Segment{{Addr: 999, Bytes: 1 << 20}}, cache, pool)
}
