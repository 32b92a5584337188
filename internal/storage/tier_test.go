package storage

import (
	"testing"

	"emucheck/internal/sim"
)

func TestParseBackendKind(t *testing.T) {
	cases := []struct {
		in   string
		want TierKind // 0: no tier
		ok   bool
	}{
		{"", 0, true},
		{"mem", 0, true},
		{"disk", DiskKind, true},
		{"remote", RemoteKind, true},
		{"tape", 0, false},
	}
	for _, c := range cases {
		tier, err := ParseTier(c.in, 0)
		var got TierKind
		if tier != nil {
			got = tier.Kind
		}
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseTier(%q) = %v, %v; want %v ok=%v", c.in, tier, err, c.want, c.ok)
		}
	}
	if tier, _ := ParseTier("disk", 10<<20); tier.Capacity != 10<<20 {
		t.Errorf("disk capacity %d, want 10 MB", tier.Capacity)
	}
}

func TestDiskBackendCapacitySpill(t *testing.T) {
	b := NewDiskTier(10 << 20)
	if !b.Put(1, 6<<20) {
		t.Fatal("first segment should fit")
	}
	if b.Fits(6 << 20) {
		t.Fatal("Fits must refuse 12 MB into a 10 MB disk")
	}
	if b.Put(2, 6<<20) || b.Has(2) {
		t.Fatal("second segment should spill: 12 MB into a 10 MB disk")
	}
	// Re-putting a resident segment at a new size must not double-count.
	if !b.Put(1, 4<<20) {
		t.Fatal("shrinking a resident segment should fit")
	}
	if b.StoredBytes() != 4<<20 {
		t.Fatalf("stored %d after re-put", b.StoredBytes())
	}
	if !b.Put(2, 6<<20) {
		t.Fatal("after the shrink the second segment fits")
	}
	// Costs: seek plus bytes at the sequential rate.
	got := b.Cost(70 << 20)
	want := b.Seek + sim.Second
	if got != want {
		t.Fatalf("Cost(70MB) = %v, want %v", got, want)
	}
}

func TestRemoteBackendRTT(t *testing.T) {
	b := NewRemoteTier()
	if b.Cost(1<<20) != b.RTT || b.Cost(1<<30) != b.RTT {
		t.Fatal("remote cost must be the round trip")
	}
	if b.Cost(0) != 0 {
		t.Fatal("empty put is free")
	}
	for i := Addr(0); i < 100; i++ {
		if !b.Put(i, 1<<20) {
			t.Fatal("the pool never fills")
		}
	}
	if b.SegmentCount() != 100 {
		t.Fatalf("segments %d", b.SegmentCount())
	}
}

// TestChainStoreMirrorsBackend proves Mirror keeps a tier's resident
// set exactly equal to the chain store's entries — across commits,
// dedup, forks, prune folds (re-keying the base), and branch release
// GC — and drops departed entries from the mirrored cache.
func TestChainStoreMirrorsBackend(t *testing.T) {
	cs := NewChainStore()
	be := NewRemoteTier()
	cache := NewDeltaCache(64<<20, cs.Refs)
	cs.Mirror(be, cache)

	check := func(stage string) {
		t.Helper()
		if be.SegmentCount() != cs.Entries() {
			t.Fatalf("%s: backend holds %d segments, store %d entries", stage, be.SegmentCount(), cs.Entries())
		}
		if be.StoredBytes() != cs.StoredBytes() {
			t.Fatalf("%s: backend %d bytes, store %d bytes", stage, be.StoredBytes(), cs.StoredBytes())
		}
		for a := range cs.epochs {
			if !be.Has(a) {
				t.Fatalf("%s: store entry %v missing from backend", stage, a)
			}
		}
	}

	l := cs.NewLineage(2)
	check("empty lineage")
	for i := int64(0); i < 6; i++ {
		e := l.Commit(runFrom([]Block{{i, i + 1}, {i + 100, i + 2}}), 1)
		segs := l.Segments()
		cache.Put(segs[len(segs)-1].Addr, e.DiskBytes())
		check("commit (with prune folds past depth 2)")
	}
	if cache.Len() == 0 {
		t.Fatal("commits should have been cached")
	}
	fork := l.Fork()
	check("fork (shared by reference)")
	fork.Commit(runFrom([]Block{{999, 1}}), 1)
	check("divergent commit")
	l.Release()
	check("parent released")
	fork.Release()
	check("fork released")
	if cs.Entries() != 0 || be.SegmentCount() != 0 {
		t.Fatalf("everything released: store %d, backend %d", cs.Entries(), be.SegmentCount())
	}
	if cache.Len() != 0 {
		t.Fatalf("released segments still cached: %d entries", cache.Len())
	}
}
