package storage

import (
	"testing"
	"testing/quick"

	"emucheck/internal/node"
	"emucheck/internal/sim"
)

func newVol(seed int64, mode Mode) (*sim.Simulator, *Volume) {
	s := sim.New(seed)
	d := node.NewDisk(s, node.DefaultParams())
	return s, NewVolume(d, 6<<30, mode)
}

func TestWriteGoesToCurrentDelta(t *testing.T) {
	s, v := newVol(1, Optimized)
	done := false
	v.Write(0, BlockSize, func() { done = true })
	s.Run()
	if !done {
		t.Fatal("write never completed")
	}
	if v.Cur.Slots() != 1 {
		t.Fatalf("cur slots = %d", v.Cur.Slots())
	}
	if v.Agg.Blocks() != 0 {
		t.Fatal("agg polluted")
	}
}

func TestReadFallThrough(t *testing.T) {
	s, v := newVol(1, Optimized)
	// Unwritten block: falls through to golden.
	v.Read(10*BlockSize, BlockSize, nil)
	s.Run()
	if v.ReadsGolden != 1 {
		t.Fatalf("golden reads = %d", v.ReadsGolden)
	}
	// Write then read: served from current delta.
	v.Write(10*BlockSize, BlockSize, nil)
	v.Read(10*BlockSize, BlockSize, nil)
	s.Run()
	if v.ReadsCur != 1 {
		t.Fatalf("cur reads = %d", v.ReadsCur)
	}
	// After a merge, served from the aggregated delta.
	v.Merge(nil)
	v.Read(10*BlockSize, BlockSize, nil)
	s.Run()
	if v.ReadsAgg != 1 {
		t.Fatalf("agg reads = %d", v.ReadsAgg)
	}
}

func TestRedoLogNeverReadsBeforeWrite(t *testing.T) {
	s, v := newVol(1, Optimized)
	for i := int64(0); i < 64; i++ {
		v.Write(i*BlockSize, BlockSize, nil)
	}
	s.Run()
	if v.Disk.ReadOps != 0 {
		t.Fatalf("optimized COW performed %d reads", v.Disk.ReadOps)
	}
	if v.CowCopies != 0 {
		t.Fatal("optimized COW copied blocks")
	}
}

func TestOriginalLVMReadsBeforeWrite(t *testing.T) {
	s, v := newVol(1, OriginalLVM)
	// 16 blocks of 64 KiB span two 512 KiB LVM chunks.
	for i := int64(0); i < 16; i++ {
		v.Write(i*BlockSize, BlockSize, nil)
	}
	s.Run()
	if v.Disk.ReadOps != 2 {
		t.Fatalf("read-before-write ops = %d, want 2 (one per LVM chunk)", v.Disk.ReadOps)
	}
	// Second write to the same chunk: no more copies.
	v.Write(0, BlockSize, nil)
	s.Run()
	if v.CowCopies != 2 {
		t.Fatalf("cow copies = %d", v.CowCopies)
	}
}

func TestOriginalLVMSlowerThanOptimized(t *testing.T) {
	elapsed := func(mode Mode) sim.Time {
		s, v := newVol(1, mode)
		var end sim.Time
		const n = 256
		left := n
		for i := int64(0); i < n; i++ {
			v.Write(i*BlockSize, BlockSize, func() {
				left--
				if left == 0 {
					end = s.Now()
				}
			})
		}
		s.Run()
		return end
	}
	opt := elapsed(Optimized)
	orig := elapsed(OriginalLVM)
	if orig < opt*2 {
		t.Fatalf("original LVM (%v) not much slower than redo log (%v)", orig, opt)
	}
}

func TestFreshVsAgedMetadataOverhead(t *testing.T) {
	run := func(aged bool) sim.Time {
		s, v := newVol(1, Optimized)
		if aged {
			v.Age()
		}
		var end sim.Time
		const n = 512
		left := n
		for i := int64(0); i < n; i++ {
			v.Write(i*BlockSize, BlockSize, func() {
				left--
				if left == 0 {
					end = s.Now()
				}
			})
		}
		s.Run()
		return end
	}
	fresh := run(false)
	aged := run(true)
	if fresh <= aged {
		t.Fatalf("fresh (%v) not slower than aged (%v)", fresh, aged)
	}
	overhead := float64(fresh-aged) / float64(aged)
	if overhead < 0.05 || overhead > 0.6 {
		t.Fatalf("metadata overhead %.0f%% outside plausible band", overhead*100)
	}
}

func TestRawBypassesCOW(t *testing.T) {
	s, v := newVol(1, Raw)
	v.Write(0, 4*BlockSize, nil)
	v.Read(0, 4*BlockSize, nil)
	s.Run()
	if v.Cur.Slots() != 0 {
		t.Fatal("raw mode touched the delta")
	}
}

func TestMergeReorderRestoresLocality(t *testing.T) {
	// Write blocks in reverse order, then read them sequentially from
	// the log (reverse order on disk) and again after the merge lays
	// them out by VBA: the merge must make the read mostly seek-free.
	s, v := newVol(1, Optimized)
	v.Age()
	for i := int64(63); i >= 0; i-- {
		v.Write(i*BlockSize, BlockSize, nil)
	}
	s.Run()
	seeks := func() int64 {
		pre := v.Disk.SeekOps
		v.Read(0, 64*BlockSize, nil)
		s.Run()
		return v.Disk.SeekOps - pre
	}
	logOrder := seeks()
	v.Merge(nil)
	ordered := seeks()
	if ordered >= logOrder {
		t.Fatalf("merge did not reduce seeks: %d vs %d in log order", ordered, logOrder)
	}
	if ordered > 2 {
		t.Fatalf("sequential read after merge still seeks %d times", ordered)
	}
}

func TestMergeSupersedesAndClears(t *testing.T) {
	s, v := newVol(1, Optimized)
	v.Write(0, BlockSize, nil)
	v.Merge(nil)
	v.Write(0, BlockSize, nil) // overwrite in a new swap cycle
	v.Write(BlockSize, BlockSize, nil)
	s.Run()
	got := v.Merge(nil)
	if got != 2*BlockSize {
		t.Fatalf("merged bytes = %d, want 2 blocks", got)
	}
	if v.Cur.Slots() != 0 {
		t.Fatal("current delta not cleared")
	}
}

func TestFreeBlockEliminationInMergeAndSize(t *testing.T) {
	s, v := newVol(1, Optimized)
	for i := int64(0); i < 10; i++ {
		v.Write(i*BlockSize, BlockSize, nil)
	}
	s.Run()
	free := func(vba int64) bool { return vba >= 5 } // half the blocks freed
	if got := v.CurrentDeltaBytes(free); got != 5*BlockSize {
		t.Fatalf("live bytes = %d", got)
	}
	if got := v.CurrentDeltaBytes(nil); got != 10*BlockSize {
		t.Fatalf("raw bytes = %d", got)
	}
	if got := v.Merge(free); got != 5*BlockSize {
		t.Fatalf("merged = %d", got)
	}
}

func TestEmptyIORejected(t *testing.T) {
	_, v := newVol(1, Optimized)
	for _, fn := range []func(){
		func() { v.Read(0, 0, nil) },
		func() { v.Write(0, -1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		}()
	}
}

func TestCoalesce(t *testing.T) {
	got := coalesce([]span{{0, 10}, {10, 10}, {30, 5}, {35, 5}})
	if len(got) != 2 || got[0].n != 20 || got[1].n != 10 {
		t.Fatalf("coalesced: %+v", got)
	}
	if coalesce(nil) != nil {
		t.Fatal("nil coalesce")
	}
}

// Property: after any write pattern, every written block resolves to the
// current delta, and reads never consult the disk below block
// granularity; merge preserves exactly the distinct live block set.
func TestPropertyCOWConsistency(t *testing.T) {
	f := func(blocks []uint8) bool {
		s, v := newVol(5, Optimized)
		distinct := make(map[int64]bool)
		for _, b := range blocks {
			vba := int64(b % 64)
			distinct[vba] = true
			v.Write(vba*BlockSize, BlockSize, nil)
		}
		s.Run()
		for vba := range distinct {
			if v.Cur.lookup(vba) < 0 {
				return false
			}
		}
		merged := v.Merge(nil)
		return merged == int64(len(distinct))*BlockSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestVolumeWriteAllocs holds the redo-log write path to zero heap
// allocations: once the current delta's run and log, the disk queue
// and the event heap have grown to a swap cycle's size, sequential
// 512 KiB guest writes append in place and their disk requests are
// queued by value.
func TestVolumeWriteAllocs(t *testing.T) {
	const write, writes = 512 << 10, 64
	s, v := newVol(1, Optimized)
	completed := 0
	done := func() { completed++ }
	for i := int64(0); i < writes; i++ {
		v.Write(i*write, write, done)
		s.Run()
	}
	v.Merge(nil)
	var off int64
	allocs := testing.AllocsPerRun(writes-1, func() {
		v.Write(off, write, done)
		s.Run()
		off += write
	})
	if completed != 2*writes || v.Cur.Slots() != writes*write/BlockSize {
		t.Fatalf("%d writes completed, %d current-delta slots", completed, v.Cur.Slots())
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocations per sequential write, want 0", allocs)
	}
}

// TestSequentialVolumeWriteAllocs writes one long sequential stream
// through eight epochs, each longer than the last, with an epoch
// commit and a merge after each: the current delta and the aggregated
// delta must each stay one extent, and Volume.Write must not allocate,
// even while the stream outgrows every earlier epoch.
func TestSequentialVolumeWriteAllocs(t *testing.T) {
	const write, perEpoch = 512 << 10, 64
	s, v := newVol(1, Optimized)
	l := NewChainStore().NewLineage(2)
	var off int64
	for epoch := 1; epoch <= 8; epoch++ {
		// AllocsPerRun writes the epoch's stream twice: once to warm up,
		// once measured.
		allocs := testing.AllocsPerRun(1, func() {
			for range epoch * perEpoch {
				v.Write(off, write, nil)
				s.Run()
				off += write
			}
		})
		if allocs != 0 {
			t.Fatalf("epoch %d: %.0f allocations in Volume.Write, want 0", epoch, allocs)
		}
		if len(v.Cur.run) != 1 || len(v.Cur.tail) != 0 {
			t.Fatalf("epoch %d: current delta holds %d extents and a tail of %d, want one", epoch, len(v.Cur.run), len(v.Cur.tail))
		}
		blocks := v.EpochBlocks(nil)
		if want := int64(2 * epoch * perEpoch * write / BlockSize); blocks.Blocks() != want {
			t.Fatalf("epoch %d: %d epoch blocks, want %d", epoch, blocks.Blocks(), want)
		}
		l.Commit(blocks, 0)
		v.Merge(nil)
		if len(v.Agg.run) != 1 || v.Agg.Blocks() != off/BlockSize {
			t.Fatalf("epoch %d: aggregated delta holds %d blocks in %d extents, want %d in one",
				epoch, v.Agg.Blocks(), len(v.Agg.run), off/BlockSize)
		}
	}
}
