package storage

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"emucheck/internal/sim"
)

// refMerge is the map-based Merge that the in-place one replaced, kept
// as the oracle: it collects the surviving blocks in a fresh set,
// appends them to a fresh aggregated delta and replaces the current
// delta with a fresh one.
func refMerge(v *Volume, reorder bool, isFree func(vba int64) bool) int64 {
	merged := make(map[int64]bool, len(v.Agg.Index)+len(v.Cur.Index))
	for vba := range v.Agg.Index {
		merged[vba] = true
	}
	for vba := range v.Cur.Index {
		merged[vba] = true
	}
	newAgg := NewDelta(AggBase)
	vbas := make([]int64, 0, len(merged))
	for vba := range merged {
		if isFree != nil && isFree(vba) {
			delete(v.content, vba)
			continue
		}
		vbas = append(vbas, vba)
	}
	if reorder {
		sort.Slice(vbas, func(i, j int) bool { return vbas[i] < vbas[j] })
	} else {
		vbas = vbas[:0]
		seen := make(map[int64]bool)
		for _, vba := range append(append([]int64{}, v.Agg.Order...), v.Cur.Order...) {
			if seen[vba] || (isFree != nil && isFree(vba)) || !merged[vba] {
				continue
			}
			seen[vba] = true
			vbas = append(vbas, vba)
		}
	}
	for _, vba := range vbas {
		newAgg.append(vba)
	}
	v.Agg = newAgg
	v.Cur = NewDelta(CurBase)
	v.writesSinceMeta = 0
	return newAgg.Bytes()
}

// TestMergeMatchesReference drives the in-place Merge and refMerge
// through the same seeded sequences of writes, merges and free-block
// sets, reordering and not, and requires every observable of the two
// volumes to agree after each step: both deltas' indexes and log
// orders, sizes, the content views and where each block reads from.
func TestMergeMatchesReference(t *testing.T) {
	const blocks = 96
	for _, mode := range []string{"reorder", "append-order", "mixed"} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			sGot, sWant := sim.New(seed), sim.New(seed)
			got, want := newTestVolume(sGot), newTestVolume(sWant)
			for step := 0; step < 200; step++ {
				switch op := rng.Intn(10); {
				case op < 7:
					off := int64(rng.Intn(blocks)) * BlockSize
					n := int64(1+rng.Intn(4)) * BlockSize
					if off+n > blocks*BlockSize {
						n = blocks*BlockSize - off
					}
					got.Write(off, n, nil)
					want.Write(off, n, nil)
					sGot.Run()
					sWant.Run()
				default:
					reorder := mode == "reorder" || (mode == "mixed" && rng.Intn(2) == 0)
					var isFree func(int64) bool
					if rng.Intn(2) == 0 {
						free := make(map[int64]bool)
						for i := rng.Intn(8); i > 0; i-- {
							free[int64(rng.Intn(blocks))] = true
						}
						isFree = func(vba int64) bool { return free[vba] }
					}
					g, w := got.Merge(reorder, isFree), refMerge(want, reorder, isFree)
					if g != w {
						t.Fatalf("%s seed %d step %d: Merge = %d, reference %d", mode, seed, step, g, w)
					}
					compareVolumes(t, got, want, isFree, blocks)
				}
			}
			compareVolumes(t, got, want, nil, blocks)
		}
	}
}

// compareVolumes fails the test unless got and want agree on every
// observable the swap pipeline and the read path use.
func compareVolumes(t *testing.T, got, want *Volume, isFree func(int64) bool, blocks int64) {
	t.Helper()
	for _, d := range []struct {
		name      string
		got, want *Delta
	}{{"agg", got.Agg, want.Agg}, {"cur", got.Cur, want.Cur}} {
		if !maps.Equal(d.got.Index, d.want.Index) {
			t.Fatalf("%s index %v, reference %v", d.name, d.got.Index, d.want.Index)
		}
		if !slices.Equal(d.got.Order, d.want.Order) {
			t.Fatalf("%s order %v, reference %v", d.name, d.got.Order, d.want.Order)
		}
		if d.got.Bytes() != d.want.Bytes() {
			t.Fatalf("%s bytes %d, reference %d", d.name, d.got.Bytes(), d.want.Bytes())
		}
	}
	if !maps.Equal(got.Snapshot(isFree), want.Snapshot(isFree)) {
		t.Fatal("snapshot differs from reference")
	}
	if !maps.Equal(got.EpochBlocks(isFree), want.EpochBlocks(isFree)) {
		t.Fatal("epoch blocks differ from reference")
	}
	for vba := int64(0); vba < blocks; vba++ {
		if g, w := got.locate(vba), want.locate(vba); g != w {
			t.Fatalf("block %d reads from %d, reference %d", vba, g, w)
		}
	}
	if got.ReadsCur != want.ReadsCur || got.ReadsAgg != want.ReadsAgg || got.ReadsGolden != want.ReadsGolden {
		t.Fatal("read level counters differ from reference")
	}
}
