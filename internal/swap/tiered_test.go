package swap

import (
	"slices"
	"testing"

	"emucheck/internal/metrics"
	"emucheck/internal/sim"
	"emucheck/internal/storage"
)

// tierRig wires the plain rig onto a storage tier the way a cluster
// does: a shared chain store mirroring onto the tier, and
// an optional delta cache consulting the store's refcounts.
func newTierRig(seed int64, be *storage.Tier, cacheMB int64) *rig {
	r := newRig(seed)
	r.m.Stats = metrics.NewCounters()
	cs := storage.NewChainStore()
	r.m.Chains = cs
	if be != nil {
		r.m.Tier = be
		if cacheMB > 0 {
			r.m.Cache = storage.NewDeltaCache(cacheMB<<20, cs.Refs)
		}
		cs.Mirror(be, r.m.Cache)
	}
	return r
}

// runCycles drives the same dirty/park/resume script on a rig and
// returns the last swap-in report.
func runCycles(t *testing.T, r *rig, cycles int) *InReport {
	t.Helper()
	o := Options{Mode: Incremental}
	r.s.RunFor(sim.Second)
	var in *InReport
	for c := 0; c < cycles; c++ {
		r.dirty(16 << 20)
		_, in = r.cycle(t, o)
	}
	return in
}

// TestTieredRemoteCacheServesRestores: with the remote tier fronted by
// a delta cache, commit-time fills mean restores hit the cache and the
// chain stops re-streaming over the control LAN — strictly fewer
// server bytes than the identical run without a cache, with the hits
// visible in the report and the stats ledger.
func TestTieredRemoteCacheServesRestores(t *testing.T) {
	cached := newTierRig(5, storage.NewRemoteTier(), 2048)
	inC := runCycles(t, cached, 3)
	uncached := newTierRig(5, storage.NewRemoteTier(), 0)
	runCycles(t, uncached, 3)

	if inC.CachedBytes <= 0 || inC.RemoteBytes != 0 {
		t.Fatalf("cached restore: %d cached / %d remote bytes — commit fills should cover the chain",
			inC.CachedBytes, inC.RemoteBytes)
	}
	st := cached.m.Cache.Stats()
	if st.Hits == 0 {
		t.Fatal("no cache hits across three restore cycles")
	}
	cBytes := cached.m.Server.Received + cached.m.Server.Served
	uBytes := uncached.m.Server.Received + uncached.m.Server.Served
	if cBytes >= uBytes {
		t.Fatalf("cached run moved %d server bytes, uncached %d — no savings", cBytes, uBytes)
	}
	cRemote := cached.m.Stats.Get("storage.remote_bytes")
	uRemote := uncached.m.Stats.Get("storage.remote_bytes")
	if cRemote >= uRemote {
		t.Fatalf("cached remote %d >= uncached remote %d", cRemote, uRemote)
	}
	if cached.m.Stats.Get("storage.cache_hit_bytes") <= 0 {
		t.Fatal("cache_hit_bytes never accumulated")
	}
}

// TestTieredCacheLedgerDeterministic: the same seed and script must
// produce the identical hit/miss/evict ledger — cache behavior is part
// of the deterministic-run contract.
func TestTieredCacheLedgerDeterministic(t *testing.T) {
	a := newTierRig(9, storage.NewRemoteTier(), 64)
	runCycles(t, a, 4)
	b := newTierRig(9, storage.NewRemoteTier(), 64)
	runCycles(t, b, 4)
	if a.m.Cache.Stats() != b.m.Cache.Stats() {
		t.Fatalf("same seed, different cache ledgers:\n%+v\n%+v", a.m.Cache.Stats(), b.m.Cache.Stats())
	}
	if a.m.Cache.Stats().Hits+a.m.Cache.Stats().Misses == 0 {
		t.Fatal("cache never consulted")
	}
}

// TestTieredDiskKeepsChainOffLAN: the snapshot-disk tier homes the
// chain next to the node — its disk deltas never cross the control
// LAN, so the tiered run's server traffic is strictly below the legacy
// run's.
func TestTieredDiskKeepsChainOffLAN(t *testing.T) {
	disk := newTierRig(3, storage.NewDiskTier(0), 0)
	in := runCycles(t, disk, 3)
	legacy := newTierRig(3, nil, 0)
	runCycles(t, legacy, 3)

	if in.RemoteBytes != 0 || in.CachedBytes <= 0 {
		t.Fatalf("disk-tier restore: %d remote / %d local bytes", in.RemoteBytes, in.CachedBytes)
	}
	if disk.m.Stats.Get("storage.remote_bytes") != 0 {
		t.Fatalf("disk tier leaked %d chain bytes onto the LAN", disk.m.Stats.Get("storage.remote_bytes"))
	}
	if disk.m.Stats.Get("storage.local_bytes") <= 0 {
		t.Fatal("no local-tier traffic recorded")
	}
	dBytes := disk.m.Server.Received + disk.m.Server.Served
	lBytes := legacy.m.Server.Received + legacy.m.Server.Served
	if dBytes >= lBytes {
		t.Fatalf("disk tier moved %d server bytes, legacy %d", dBytes, lBytes)
	}
}

// TestTieredDiskSpillsToPool: a snapshot disk too small for the chain
// spills overflow to the pool — the run still restores correctly, and
// the stats ledger bills each refused epoch exactly once.
func TestTieredDiskSpillsToPool(t *testing.T) {
	be := storage.NewDiskTier(8 << 20) // chain epochs are 16 MB each
	r := newTierRig(7, be, 0)
	in := runCycles(t, r, 3)

	var refused int64
	for _, seg := range r.m.Lineage("n0").Segments() {
		if seg.Bytes > 0 && !be.Has(seg.Addr) {
			refused += seg.Bytes
		}
	}
	if refused != 3*16<<20 {
		t.Fatalf("an 8 MB snapshot disk must refuse all three 16 MB epochs; refused %d bytes", refused)
	}
	if got := r.m.Stats.Get("storage.spill_bytes"); got != refused {
		t.Fatalf("spill_bytes = %d, want exactly the refused epochs' %d", got, refused)
	}
	if in.RemoteBytes <= 0 {
		t.Fatal("spilled segments must restore from the pool")
	}
	// The restore staged the full replay regardless of where it lived.
	lin := r.m.Lineage("n0")
	if in.DeltaBytes != lin.ReplayBytes() {
		t.Fatalf("staged %d bytes, replay is %d", in.DeltaBytes, lin.ReplayBytes())
	}
}

// TestStandaloneManagerMirrorsPrivateStore: a manager wired without a
// cluster chain store must still mirror its private store onto the
// tier — including prune folds, which re-key the base — so the disk
// tier keeps the whole chain off the LAN and dead segments leave the
// backend.
func TestStandaloneManagerMirrorsPrivateStore(t *testing.T) {
	be := storage.NewDiskTier(0)
	r := newRig(13)
	r.m.Stats = metrics.NewCounters()
	r.m.Tier = be
	r.m.Lineage("n0").MaxDepth = 2 // force folds: 5 cycles re-key the base repeatedly
	runCycles(t, r, 5)

	cs := r.m.Lineage("n0").Store()
	if be.SegmentCount() != cs.Entries() || be.StoredBytes() != cs.StoredBytes() {
		t.Fatalf("backend (%d segs / %d bytes) drifted from the store (%d / %d)",
			be.SegmentCount(), be.StoredBytes(), cs.Entries(), cs.StoredBytes())
	}
	for _, seg := range r.m.Lineage("n0").Segments() {
		if seg.Bytes > 0 && !be.Has(seg.Addr) {
			t.Fatalf("live segment %v (folded base included) missing from the tier", seg.Addr)
		}
	}
	// With every segment mirrored, restores never touched the pool.
	if got := r.m.Stats.Get("storage.remote_bytes"); got != 0 {
		t.Fatalf("stand-alone disk tier leaked %d chain bytes onto the LAN", got)
	}
}

// TestTieredReplayByteIdentical: the storage tier is a cost model, not
// a content model — the same workload must materialize byte-identical
// chain state through every backend, and that state must match the
// volume's own snapshot (the lineage correctness invariant).
func TestTieredReplayByteIdentical(t *testing.T) {
	materialize := func(be *storage.Tier, cacheMB int64) (storage.Run, storage.Run) {
		r := newTierRig(21, be, cacheMB)
		runCycles(t, r, 4)
		lin := r.m.Lineage("n0")
		return lin.Materialize(), r.vol.Snapshot(nil)
	}
	legacyChain, legacyVol := materialize(nil, 0)
	diskChain, diskVol := materialize(storage.NewDiskTier(0), 0)
	remoteChain, remoteVol := materialize(storage.NewRemoteTier(), 256)

	equal := func(name string, got, want storage.Run) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %v vs %v", name, got, want)
		}
	}
	equal("disk vs legacy chain", diskChain, legacyChain)
	equal("remote vs legacy chain", remoteChain, legacyChain)
	equal("legacy chain vs volume", legacyChain, legacyVol)
	equal("disk chain vs volume", diskChain, diskVol)
	equal("remote chain vs volume", remoteChain, remoteVol)
}
