package storage

import (
	"testing"

	"emucheck/internal/sim"
)

// epochOf builds an epoch from (vba, tag) pairs given in any order.
func epochOf(memPages int, pairs ...int64) *Epoch {
	var blocks []Block
	for i := 0; i < len(pairs); i += 2 {
		blocks = append(blocks, Block{VBA: pairs[i], Tag: pairs[i+1]})
	}
	return &Epoch{Run: runFrom(blocks), MemPages: memPages}
}

// TestEpochAddrGolden pins the content address of a few fixed epochs.
// The tier and cache ledgers key on these addresses and the replay
// chain dedups by them, so a change to the block representation must
// hash exactly the same bytes.
func TestEpochAddrGolden(t *testing.T) {
	// An epoch committed from a volume written out of VBA order, with
	// an overwrite.
	s := sim.New(1)
	v := newTestVolume(s)
	for _, vba := range []int64{9, 2, 5, 2, 40} {
		v.Write(vba*BlockSize, BlockSize, nil)
	}
	s.Run()
	written := NewLineage(0).Commit(v.EpochBlocks(nil), 2)

	// A base folded by pruning: three commits past a depth bound of 1.
	folded := NewLineage(1)
	folded.Commit(epochOf(0, 3, 30, 1, 10).Run, 1)
	folded.Commit(epochOf(0, 1, 11, 8, 80).Run, 2)
	folded.Commit(epochOf(0, 2, 20).Run, 0)

	for _, c := range []struct {
		name string
		got  Addr
		want Addr
	}{
		{"empty", epochOf(0).addr(), 0xa8c7f832281a39c5},
		{"one block", epochOf(3, 7, 1).addr(), 0xffe904d0ba459dc0},
		{"unsorted insert order", epochOf(1, 500, 4, 3, 9, 64, 2, 1, 7).addr(), 0x5c5ab02305f73c41},
		{"large VBAs", epochOf(0, 1<<62, 1<<40, 1<<31+1, 99, 1<<33, -1).addr(), 0x92fe591b93633112},
		{"written out of order", written.addr(), 0xd5977c9946ce9fa2},
		{"pruned base", folded.baseAddr, 0xbd19e230fb040329},
	} {
		if c.got != c.want {
			t.Errorf("%s: addr %#x, want %#x", c.name, uint64(c.got), uint64(c.want))
		}
	}
}
