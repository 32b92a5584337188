package storage

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"emucheck/internal/node"
	"emucheck/internal/sim"
)

// drain runs the simulator until the volume's disk requests settle.
func drain(s *sim.Simulator) { s.Run() }

func newTestVolume(s *sim.Simulator) *Volume {
	m := node.NewMachine(s, "t", node.DefaultParams())
	return NewVolume(m.Disk, 4<<30, Optimized)
}

// TestLineageReplayIdentity is the delta-chain reconstruction property:
// under a random write workload with commits at random epochs, the
// materialized base + replayed delta chain must be byte-identical
// (content-tag identical) to a full checkpoint of the volume — across
// prune/merge boundaries, which the tiny MaxDepth forces constantly.
func TestLineageReplayIdentity(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		v := newTestVolume(s)
		l := NewLineage(2) // tiny depth bound: every few commits prune

		pruned := false
		for epoch := 0; epoch < 12; epoch++ {
			// Random workload: a mix of fresh writes, overwrites of hot
			// blocks, and multi-block extents.
			for w := 0; w < 1+rng.Intn(40); w++ {
				blk := int64(rng.Intn(200))
				if rng.Intn(3) == 0 {
					blk = int64(rng.Intn(8)) // hot set: forces overlap across epochs
				}
				n := int64(1+rng.Intn(3)) * BlockSize
				v.Write(blk*BlockSize, n, nil)
			}
			drain(s)

			// Commit the epoch delta and merge locally, as a swap-out does.
			l.Commit(v.EpochBlocks(nil), 0)
			v.Merge(nil)
			if l.Depth() < l.MaxDepth+1 && l.Epochs() > l.MaxDepth {
				pruned = true
			}

			if got, want := l.Materialize(), v.Snapshot(nil); !slices.Equal(got, want) {
				t.Fatalf("seed %d epoch %d: replay %v, snapshot %v", seed, epoch, got, want)
			}
		}
		if !pruned {
			t.Fatalf("seed %d: chain never hit the prune boundary; property untested", seed)
		}
		if l.Depth() > l.MaxDepth {
			t.Fatalf("seed %d: chain depth %d exceeds bound %d", seed, l.Depth(), l.MaxDepth)
		}
		if l.MergedBytes == 0 {
			t.Fatalf("seed %d: pruning merged nothing", seed)
		}
	}
}

// TestLineageFreeBlockDrop: retroactive free-block elimination must
// remove freed blocks from the replayed image exactly as the volume's
// merge drops them from the delta history.
func TestLineageFreeBlockDrop(t *testing.T) {
	s := sim.New(7)
	v := newTestVolume(s)
	l := NewLineage(2)
	isFree := func(vba int64) bool { return vba%2 == 0 }

	for epoch := 0; epoch < 6; epoch++ {
		for blk := int64(0); blk < 20; blk++ {
			v.Write(blk*BlockSize, BlockSize, nil)
		}
		drain(s)
		l.Commit(v.EpochBlocks(isFree), 0)
		v.Merge(isFree)
	}
	l.Drop(isFree)

	got, want := l.Materialize(), v.Snapshot(isFree)
	for _, b := range expand(want) {
		if isFree(b.VBA) {
			t.Fatalf("snapshot retains freed block %d", b.VBA)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("replay %v, snapshot %v", got, want)
	}
}

// TestLineageReplayBounded: replay cost must stay bounded by pruning
// even as committed epochs grow without limit.
func TestLineageReplayBounded(t *testing.T) {
	l := NewLineage(3)
	// Every epoch rewrites the same 10 hot blocks plus 2 fresh ones.
	fresh := int64(1000)
	for epoch := 0; epoch < 50; epoch++ {
		var blocks []Block
		for b := int64(0); b < 10; b++ {
			blocks = append(blocks, Block{b, int64(epoch*100) + b})
		}
		blocks = append(blocks, Block{fresh, int64(epoch)}, Block{fresh + 1, int64(epoch)})
		fresh += 2
		l.Commit(runFrom(blocks), 0)
	}
	if l.Depth() != 3 {
		t.Fatalf("depth %d, want 3", l.Depth())
	}
	// Base holds hot blocks once (deduplicated) plus all pruned fresh
	// blocks; chain holds 3 epochs of 12. Unbounded replay would be
	// 50*12 blocks.
	maxBlocks := int64(10 + 2*50 + 3*12)
	if got := l.ReplayBytes() / BlockSize; got > maxBlocks {
		t.Fatalf("replay %d blocks, want <= %d (pruning not deduplicating)", got, maxBlocks)
	}
}

// commitCost commits run to l and reports the objects and bytes the
// commit allocated.
func commitCost(l *Lineage, run Run) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.Commit(run, 0)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestLineagePruneAllocs commits one long sequential stream, each
// epoch longer than the last, into a lineage with MaxDepth 2, so every
// commit from the third on folds the oldest epoch into the base: each
// epoch and the folded base must stay one extent, and once the base's
// storage has warmed up a pruning commit must allocate the same objects
// and bytes however long the stream has grown.
func TestLineagePruneAllocs(t *testing.T) {
	const write, perEpoch, epochs, warm = 512 << 10, 16, 12, 5
	s, v := newVol(1, Optimized)
	l := NewChainStore().NewLineage(2)
	var off int64
	var objects, bytes uint64
	for epoch := 1; epoch <= epochs; epoch++ {
		for range epoch * perEpoch {
			v.Write(off, write, nil)
			off += write
		}
		s.Run()
		run := v.EpochBlocks(nil)
		v.Merge(nil)
		if len(run) != 1 {
			t.Fatalf("epoch %d: %d extents, want one", epoch, len(run))
		}
		o, b := commitCost(l, run)
		if epoch > l.MaxDepth && len(l.base.Run) != 1 {
			t.Fatalf("epoch %d: base holds %d extents, want one", epoch, len(l.base.Run))
		}
		switch {
		case epoch == warm:
			objects, bytes = o, b
		case epoch > warm && (o != objects || b != bytes):
			t.Fatalf("epoch %d: pruning commit allocated %d objects, %d bytes; epoch %d allocated %d, %d",
				epoch, o, b, warm, objects, bytes)
		}
	}
}
