package swap

import (
	"emucheck/internal/storage"
)

// Cross-facility migration of parked tenants (federation data plane).
//
// A parked tenant's run-time state is a content-addressed checkpoint
// chain whose authoritative copy lives in the shared global pool
// (a storage.RemoteKind tier): parking committed it there, so any
// facility in the federation can restore it. Migration therefore
// moves no authority — it moves *locality*. The source facility ships
// the chain over the WAN into the destination's storage.DeltaCache
// ahead of the restore (warm-up), so the eventual swap-in replays the
// chain from local media instead of re-streaming every segment from
// the pool across the control LAN.

// ChainBytes sums a chain's payload.
func ChainBytes(chain []storage.Segment) int64 {
	var n int64
	for _, seg := range chain {
		n += seg.Bytes
	}
	return n
}

// PlanWarmUp selects the chain segments worth shipping to the
// destination: those its cache does not already hold. The plan is in
// chain order (base first), so a truncated warm-up still front-loads
// the segments every restore replays first. The lookup is by
// residency only — no ledger or recency side effects.
func PlanWarmUp(chain []storage.Segment, dst *storage.DeltaCache) []storage.Segment {
	var plan []storage.Segment
	for _, seg := range chain {
		if !dst.Contains(seg.Addr) {
			plan = append(plan, seg)
		}
	}
	return plan
}

// WarmUp admits the planned segments into the destination cache and
// returns the bytes actually admitted. Admission goes through the
// cache's refcount-aware path: pinned (shared) entries are never
// evicted to make room, so an oversized warm-up degrades to a partial
// one instead of destroying the destination's resident working set.
func WarmUp(plan []storage.Segment, dst *storage.DeltaCache) int64 {
	var admitted int64
	for _, seg := range plan {
		// Stop once the next segment could only be admitted by evicting
		// segments this same warm-up already shipped (they are the MRU
		// entries, so LRU reaches them last): past that point the
		// migration would thrash its own transfer instead of widening
		// the restore's local coverage.
		if admitted+seg.Bytes > dst.Capacity {
			break
		}
		if dst.WarmUp(seg.Addr, seg.Bytes) {
			admitted += seg.Bytes
		}
	}
	return admitted
}

// RestoreChain replays a tenant's chain at a facility: each segment is
// served from the local delta cache if resident (local bytes), and
// otherwise streamed from the shared pool (remote bytes) and admitted
// into the cache for the next restore. The returned split is the
// migration warm-up's whole value proposition: warmed restores shift
// bytes from remote to local.
func RestoreChain(chain []storage.Segment, cache *storage.DeltaCache, pool *storage.Tier) (local, remote int64) {
	for _, seg := range chain {
		if _, ok := cache.Get(seg.Addr); ok {
			local += seg.Bytes
			continue
		}
		cache.MissBytes(seg.Bytes)
		remote += seg.Bytes
		if pool != nil && !pool.Has(seg.Addr) {
			// The pool is authoritative for every parked chain; a miss
			// there is lost state, not a cache cold start.
			panic("swap: restore of chain segment absent from the shared pool")
		}
		cache.Put(seg.Addr, seg.Bytes)
	}
	return local, remote
}
