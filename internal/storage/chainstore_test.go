package storage

import (
	"math/rand"
	"slices"
	"testing"

	"emucheck/internal/sim"
)

// tagAt reports the tag run holds for vba, if it holds vba.
func tagAt(run Run, vba int64) (int64, bool) {
	i, ok := findExt(run, vba)
	if !ok {
		return 0, false
	}
	return run[i].Tag + vba - run[i].VBA, true
}

// TestChainStoreForkSharesByReference: forking must add no bytes to the
// store — the branch references the parent's base and chain.
func TestChainStoreForkSharesByReference(t *testing.T) {
	cs := NewChainStore()
	l := cs.NewLineage(3)
	for epoch := 0; epoch < 5; epoch++ {
		blocks := []Block{{int64(epoch), int64(100 + epoch)}, {int64(epoch + 50), int64(epoch)}}
		l.Commit(runFrom(blocks), 1)
	}
	before := cs.StoredBytes()
	entries := cs.Entries()

	b := l.Fork()
	if cs.StoredBytes() != before || cs.Entries() != entries {
		t.Fatalf("fork copied bytes: %d -> %d (entries %d -> %d)", before, cs.StoredBytes(), entries, cs.Entries())
	}
	if b.SharedBytes() != b.ReplayBytes() {
		t.Fatalf("fresh fork shares %d of %d replay bytes, want all", b.SharedBytes(), b.ReplayBytes())
	}

	// Divergence is branch-private.
	b.Commit(runFrom([]Block{{999, 1}}), 0)
	got, parent := b.Materialize(), l.Materialize()
	if _, ok := tagAt(parent, 999); ok {
		t.Fatal("branch commit leaked into the parent's replay view")
	}
	if tag, ok := tagAt(got, 999); !ok || tag != 1 {
		t.Fatal("branch lost its private commit")
	}
}

// TestChainStoreCopyOnWritePrune: pruning one branch past MaxDepth must
// not change what its sibling replays, even though they share epochs.
func TestChainStoreCopyOnWritePrune(t *testing.T) {
	cs := NewChainStore()
	l := cs.NewLineage(2)
	for epoch := 0; epoch < 2; epoch++ {
		l.Commit(runFrom([]Block{{int64(epoch), int64(epoch + 10)}}), 0)
	}
	b := l.Fork()
	want := b.Materialize()

	// Drive the parent through several prune folds.
	for epoch := 2; epoch < 8; epoch++ {
		l.Commit(runFrom([]Block{{int64(epoch), int64(epoch + 10)}}), 0)
	}
	if l.MergedBytes == 0 {
		t.Fatal("parent never pruned; copy-on-write untested")
	}
	if got := b.Materialize(); !slices.Equal(got, want) {
		t.Fatalf("sibling view changed: %v -> %v", want, got)
	}
}

// TestChainStoreReleaseGCs: releasing a branch reclaims exactly the
// epochs no other branch can reach, and leaves survivors byte-identical.
func TestChainStoreReleaseGCs(t *testing.T) {
	cs := NewChainStore()
	l := cs.NewLineage(4)
	l.Commit(runFrom([]Block{{1, 1}, {2, 2}}), 0)
	b := l.Fork()
	b.Commit(runFrom([]Block{{3, 3}}), 0) // branch-private
	l.Commit(runFrom([]Block{{4, 4}}), 0) // parent-private

	want := l.Materialize()
	stored := cs.StoredBytes()
	b.Release()
	if cs.GCBytes != BlockSize {
		t.Fatalf("GC reclaimed %d bytes, want exactly the branch-private epoch (%d)", cs.GCBytes, BlockSize)
	}
	if cs.StoredBytes() != stored-BlockSize {
		t.Fatalf("store holds %d bytes after release, want %d", cs.StoredBytes(), stored-BlockSize)
	}
	if got := l.Materialize(); !slices.Equal(got, want) {
		t.Fatalf("survivor changed after sibling release: %v -> %v", want, got)
	}
	b.Release() // idempotent
	if cs.GCBytes != BlockSize {
		t.Fatal("double release double-counted GC")
	}

	// Releasing the last branch empties the store.
	l.Release()
	if cs.Entries() != 0 {
		t.Fatalf("store retains %d entries after all branches released", cs.Entries())
	}
}

// TestChainStoreDedup: committing content-identical epochs on two
// branches stores the bytes once.
func TestChainStoreDedup(t *testing.T) {
	cs := NewChainStore()
	a := cs.NewLineage(4)
	b := cs.NewLineage(4)
	a.Commit(runFrom([]Block{{7, 70}, {8, 80}}), 2)
	before := cs.StoredBytes()
	b.Commit(runFrom([]Block{{7, 70}, {8, 80}}), 2)
	if cs.StoredBytes() != before {
		t.Fatalf("identical commit stored again: %d -> %d bytes", before, cs.StoredBytes())
	}
	if cs.DedupBytes != 2*BlockSize {
		t.Fatalf("DedupBytes %d, want %d", cs.DedupBytes, 2*BlockSize)
	}
}

// TestChainStoreBranchReplayIdentity is the branching extension of the
// lineage replay property: fork a branch off a live volume workload,
// run both sides through divergent writes, prunes, and retroactive
// drops, and require each side's materialized chain to stay
// byte-identical to its own volume snapshot — then release branches in
// random order and require the survivors to stay correct as the store
// garbage-collects.
func TestChainStoreBranchReplayIdentity(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		cs := NewChainStore()

		type branch struct {
			v *Volume
			l *Lineage
		}
		write := func(br *branch) {
			for w := 0; w < 1+rng.Intn(30); w++ {
				blk := int64(rng.Intn(150))
				if rng.Intn(3) == 0 {
					blk = int64(rng.Intn(8)) // hot set: overlap across epochs
				}
				br.v.Write(blk*BlockSize, int64(1+rng.Intn(3))*BlockSize, nil)
			}
			s.Run()
		}
		commit := func(br *branch) {
			br.l.Commit(br.v.EpochBlocks(nil), 0)
			br.v.Merge(nil)
		}
		check := func(br *branch, when string) {
			if got, want := br.l.Materialize(), br.v.Snapshot(nil); !slices.Equal(got, want) {
				t.Fatalf("seed %d %s: replay %v, snapshot %v", seed, when, got, want)
			}
		}

		// Shared history: one parent volume runs a few epochs.
		parent := &branch{v: newTestVolume(s), l: cs.NewLineage(2)}
		for epoch := 0; epoch < 4; epoch++ {
			write(parent)
			commit(parent)
		}

		// Fork: each branch clones the parent's content view (a branch
		// starts from the same checkpoint state) and its lineage.
		branches := []*branch{parent}
		for i := 0; i < 3; i++ {
			bv := newTestVolume(s)
			bv.Agg = aggOf(parent.v.Snapshot(nil))
			bv.merged = parent.v.merged
			branches = append(branches, &branch{v: bv, l: parent.l.Fork()})
		}

		// Divergent futures: every branch takes its own writes, commits,
		// prunes, and occasional retroactive drops.
		for round := 0; round < 6; round++ {
			for bi, br := range branches {
				write(br)
				commit(br)
				if rng.Intn(4) == 0 {
					free := int64(rng.Intn(8))
					isFree := func(vba int64) bool { return vba == free }
					br.l.Drop(isFree)
					br.v.Merge(isFree)
					// Merge only filters Agg; a same-round future write may
					// re-dirty it, which both sides then agree on.
				}
				check(br, "diverged")
				_ = bi
			}
		}

		// Release branches one at a time; survivors must stay intact.
		for len(branches) > 1 {
			victim := rng.Intn(len(branches))
			branches[victim].l.Release()
			branches = append(branches[:victim], branches[victim+1:]...)
			for _, br := range branches {
				check(br, "after GC")
			}
		}
		if cs.GCBytes == 0 {
			t.Fatalf("seed %d: releasing diverged branches reclaimed nothing", seed)
		}
	}
}
