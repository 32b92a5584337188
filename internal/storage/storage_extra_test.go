package storage

import "testing"

func TestReadSpansMultipleLevels(t *testing.T) {
	s, v := newVol(1, Optimized)
	v.Age()
	// Block 0 in cur, block 1 in agg, block 2 only in golden.
	v.Write(BlockSize, BlockSize, nil) // will be merged to agg
	s.Run()
	v.Merge(nil)
	v.Write(0, BlockSize, nil) // stays in cur
	s.Run()
	v.ReadsCur, v.ReadsAgg, v.ReadsGolden = 0, 0, 0
	v.Read(0, 3*BlockSize, nil)
	s.Run()
	if v.ReadsCur != 1 || v.ReadsAgg != 1 || v.ReadsGolden != 1 {
		t.Fatalf("level hits: cur=%d agg=%d golden=%d", v.ReadsCur, v.ReadsAgg, v.ReadsGolden)
	}
}

func TestSequentialCurReadsCoalesce(t *testing.T) {
	s, v := newVol(1, Optimized)
	v.Age()
	// Sequential writes produce a sequential log; a spanning read should
	// be few disk ops, not one per block.
	for i := int64(0); i < 16; i++ {
		v.Write(i*BlockSize, BlockSize, nil)
	}
	s.Run()
	pre := v.Disk.ReadOps
	v.Read(0, 16*BlockSize, nil)
	s.Run()
	if ops := v.Disk.ReadOps - pre; ops != 1 {
		t.Fatalf("spanning read cost %d disk ops, want 1 (coalesced)", ops)
	}
}

func TestOverwriteSupersedesInLog(t *testing.T) {
	s, v := newVol(1, Optimized)
	v.Write(0, BlockSize, nil)
	v.Write(0, BlockSize, nil)
	v.Write(0, BlockSize, nil)
	s.Run()
	// The log holds three slots but the index points at the newest.
	if v.Cur.Slots() != 3 {
		t.Fatalf("log slots = %d", v.Cur.Slots())
	}
	if got := v.Cur.lookup(0); got != CurBase+2*BlockSize {
		t.Fatalf("lookup = %d, want newest slot", got)
	}
	// Merge compacts the superseded slots away.
	if got := v.Merge(nil); got != BlockSize {
		t.Fatalf("merged = %d", got)
	}
}

func TestRepeatedSwapCycleMergesAccumulate(t *testing.T) {
	s, v := newVol(1, Optimized)
	v.Age()
	for cycle := int64(0); cycle < 3; cycle++ {
		v.Write(cycle*8*BlockSize, 4*BlockSize, nil)
		s.Run()
		v.Merge(nil)
	}
	if got := v.Agg.Blocks(); got != 12 {
		t.Fatalf("aggregated = %d blocks", got)
	}
	if v.Cur.Slots() != 0 {
		t.Fatal("cur not empty after merges")
	}
}

func TestModeStrings(t *testing.T) {
	if Optimized.String() != "branch" || OriginalLVM.String() != "branch-orig" || Raw.String() != "base" {
		t.Fatal("mode strings")
	}
	_, v := newVol(1, Optimized)
	if v.String() == "" {
		t.Fatal("volume string")
	}
}

func TestDeltaLiveBytesNilPredicate(t *testing.T) {
	_, v := newVol(1, Optimized)
	v.Cur.append(1, 1)
	v.Cur.append(2, 1)
	if v.CurrentDeltaBytes(nil) != 2*BlockSize {
		t.Fatal("nil predicate should count everything")
	}
}

func TestRawModeAddressesGoldenDirectly(t *testing.T) {
	s, v := newVol(1, Raw)
	var lba int64 = -1
	// Peek at where a raw write lands by submitting and inspecting the
	// head position after completion.
	v.Write(12345, 100, func() { lba = 0 })
	s.Run()
	if lba != 0 {
		t.Fatal("write incomplete")
	}
	if v.Disk.WriteBytes != 100 {
		t.Fatalf("wrote %d", v.Disk.WriteBytes)
	}
}
