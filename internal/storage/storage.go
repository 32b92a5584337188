// Package storage implements the three-level branching copy-on-write
// store behind stateful swapping (paper §5.1, Fig. 3): an immutable
// golden filesystem image addressed linearly (VBA == PBA), an aggregated
// delta holding all changes from previous swap-ins, and a current delta
// capturing changes since the last swap-in.
//
// Writes go to the current delta as a redo log: full-block overwrites
// appended at the log head, so COW never performs a read-before-write
// (§5.3, the order-of-magnitude improvement over stock LVM snapshots —
// OriginalLVM mode models the stock behaviour for Fig. 8's comparison).
// Reads cost a current-delta hash lookup, then an aggregated-delta hash
// lookup, then fall through to the golden image's linear addressing.
//
// After a swap-out, the current delta is merged into the aggregated
// delta offline; the merge re-sorts blocks by virtual address to restore
// locality lost across repeated swap cycles (§5.3).
package storage

import (
	"fmt"
	"slices"

	"emucheck/internal/node"
)

// Mode selects the copy-on-write write path.
type Mode int

// Write-path modes.
const (
	// Optimized is the paper's redo-log store: full-block overwrite,
	// never read-before-write.
	Optimized Mode = iota
	// OriginalLVM models stock LVM snapshots: the first write to a block
	// reads the original and copies it aside before writing new data.
	OriginalLVM
	// Raw bypasses COW entirely (the Fig. 8 "Base" configuration).
	Raw
)

// String names the mode as the evaluation tables label it.
func (m Mode) String() string {
	switch m {
	case Optimized:
		return "branch"
	case OriginalLVM:
		return "branch-orig"
	default:
		return "base"
	}
}

// BlockSize is the COW granularity. The paper sizes filesystem blocks as
// a multiple of the LVM block so COW is always a complete overwrite.
const BlockSize = 64 << 10

// Physical layout of the regions on the backing disk (byte LBAs). The
// regions are deliberately far apart: crossing them costs a seek, which
// is what makes fresh-disk metadata overhead (Fig. 8's 17%) and
// locality loss measurable.
const (
	GoldenBase   = 0
	AggBase      = 16 << 30
	CurBase      = 32 << 30
	MetadataBase = CurBase - (16 << 20) // near the log: a short-seek hop
	CopyAreaBase = 120 << 30            // stock-LVM copy-aside region
)

// Delta is one COW branch: a hash index from virtual block number to a
// slot in an append-only on-disk log.
type Delta struct {
	// Index maps a virtual block address to its occupied log slot.
	Index map[int64]int64
	// Order lists the VBAs in physical log-append order.
	Order []int64
	// BaseLBA is the byte LBA where the delta's log region starts.
	BaseLBA int64
}

// NewDelta creates an empty delta whose log lives at base.
func NewDelta(base int64) *Delta {
	return &Delta{Index: make(map[int64]int64), BaseLBA: base}
}

// Slots reports occupied log slots.
func (d *Delta) Slots() int { return len(d.Order) }

// Bytes reports the delta's on-disk size.
func (d *Delta) Bytes() int64 { return int64(len(d.Order)) * BlockSize }

// LiveBytes reports the delta size after free-block elimination: blocks
// the filesystem has freed are dropped (§5.1).
func (d *Delta) LiveBytes(isFree func(vba int64) bool) int64 {
	if isFree == nil {
		return d.Bytes()
	}
	var n int64
	for vba := range d.Index {
		if !isFree(vba) {
			n += BlockSize
		}
	}
	return n
}

// lookup reports the physical LBA for vba, or -1.
func (d *Delta) lookup(vba int64) int64 {
	slot, ok := d.Index[vba]
	if !ok {
		return -1
	}
	return d.BaseLBA + slot*BlockSize
}

// append adds (or overwrites) vba at the log head and reports the
// physical LBA written.
func (d *Delta) append(vba int64) int64 {
	slot := int64(len(d.Order))
	d.Index[vba] = slot
	d.Order = append(d.Order, vba)
	return d.BaseLBA + slot*BlockSize
}

// Volume is a guest virtual disk assembled from the three levels.
// It implements the timing-accurate block backend for a guest kernel.
type Volume struct {
	// Disk is the timing-accurate physical disk all levels live on.
	Disk *node.Disk
	// Mode selects the write path (redo log, stock LVM, or raw).
	Mode Mode

	// GoldenBytes is the immutable golden image's size.
	GoldenBytes int64
	// Agg is the aggregated delta (all changes from previous swap-ins);
	// Cur the current delta (changes since the last swap-in).
	Agg *Delta
	Cur *Delta

	// MetadataEvery controls how often a redo-log append must also
	// update an on-disk metadata region (a long seek). On a fresh disk
	// this happens frequently; as the disk ages and metadata regions
	// fill, the overhead disappears (§7.1 Fig. 8 discussion). Zero
	// disables metadata writes ("aged" disk).
	MetadataEvery int

	writesSinceMeta int

	// spans is Read and Write's scratch request list. Disk submission
	// never calls back synchronously, so no call re-enters while it is
	// in use.
	spans []span

	// cowCopied tracks OriginalLVM copy-aside regions (LVM chunk
	// granularity) that have already been preserved.
	cowCopied map[int64]bool

	// content tags every written block with a monotonically increasing
	// write sequence number, so two views of the volume can be compared
	// for byte-identity without storing data: equal tags mean the block
	// was last written by the same write, hence holds the same bytes.
	content  map[int64]int64
	writeSeq int64

	// ReadsCur, ReadsAgg and ReadsGolden count which level satisfied
	// each block lookup; CowCopies counts stock-LVM copy-asides.
	ReadsCur, ReadsAgg, ReadsGolden int64
	CowCopies                       int64
}

// NewVolume creates a volume over disk with a golden image of the given
// size. Fresh COW metadata (MetadataEvery=8) models a new branch.
func NewVolume(disk *node.Disk, goldenBytes int64, mode Mode) *Volume {
	return &Volume{
		Disk:          disk,
		Mode:          mode,
		GoldenBytes:   goldenBytes,
		Agg:           NewDelta(AggBase),
		Cur:           NewDelta(CurBase),
		MetadataEvery: 96,
	}
}

// Age marks the COW metadata regions as filled: appends stop paying the
// metadata seek (Fig. 8: aged branch performs within 2% of native).
func (v *Volume) Age() { v.MetadataEvery = 0 }

type span struct {
	lba int64
	n   int64
}

// coalesce merges physically adjacent spans to minimize disk requests.
func coalesce(spans []span) []span {
	if len(spans) == 0 {
		return spans
	}
	out := spans[:1]
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		if last.lba+last.n == s.lba {
			last.n += s.n
			continue
		}
		out = append(out, s)
	}
	return out
}

// locate resolves one virtual block to its physical LBA.
func (v *Volume) locate(vba int64) int64 {
	if v.Mode == Raw {
		return GoldenBase + vba*BlockSize
	}
	if lba := v.Cur.lookup(vba); lba >= 0 {
		v.ReadsCur++
		return lba
	}
	if lba := v.Agg.lookup(vba); lba >= 0 {
		v.ReadsAgg++
		return lba
	}
	v.ReadsGolden++
	return GoldenBase + vba*BlockSize
}

// submit issues the spans as disk requests; done fires when the last
// completes.
func (v *Volume) submit(op node.DiskOp, spans []span, done func()) {
	spans = coalesce(spans)
	if len(spans) == 0 {
		if done != nil {
			v.Disk.Submit(&node.DiskRequest{Op: op, LBA: 0, Bytes: 1, Done: done})
		}
		return
	}
	for i, s := range spans {
		var cb func()
		if i == len(spans)-1 {
			cb = done
		}
		v.Disk.Submit(&node.DiskRequest{Op: op, LBA: s.lba, Bytes: s.n, Done: cb})
	}
}

// Read implements the guest block backend read path.
func (v *Volume) Read(off, n int64, done func()) {
	if n <= 0 {
		panic("storage: empty read")
	}
	spans := v.spans[:0]
	for b := off / BlockSize; b <= (off+n-1)/BlockSize; b++ {
		spans = append(spans, span{lba: v.locate(b), n: BlockSize})
	}
	v.spans = spans
	v.submit(node.Read, spans, done)
}

// Write implements the guest block backend write path.
func (v *Volume) Write(off, n int64, done func()) {
	if n <= 0 {
		panic("storage: empty write")
	}
	if v.Mode == Raw {
		v.submit(node.Write, []span{{lba: GoldenBase + off, n: n}}, done)
		return
	}
	spans := v.spans[:0]
	for b := off / BlockSize; b <= (off+n-1)/BlockSize; b++ {
		if v.Mode == OriginalLVM {
			// Stock LVM snapshot: the first write within each LVM chunk
			// copies the original aside — a read plus an extra write
			// before the data write (the read-before-write the paper's
			// redo log eliminates, §5.3).
			const lvmChunk = 512 << 10
			region := b * BlockSize / lvmChunk
			if v.cowCopied == nil {
				v.cowCopied = make(map[int64]bool)
			}
			if !v.cowCopied[region] {
				v.cowCopied[region] = true
				v.CowCopies++
				src := GoldenBase + region*lvmChunk
				v.Disk.Submit(&node.DiskRequest{Op: node.Read, LBA: src, Bytes: lvmChunk})
				v.Disk.Submit(&node.DiskRequest{Op: node.Write, LBA: CopyAreaBase + v.CowCopies*lvmChunk, Bytes: lvmChunk})
			}
		}
		if v.content == nil {
			v.content = make(map[int64]int64)
		}
		v.writeSeq++
		v.content[b] = v.writeSeq
		spans = append(spans, span{lba: v.Cur.append(b), n: BlockSize})
		if v.MetadataEvery > 0 {
			v.writesSinceMeta++
			if v.writesSinceMeta >= v.MetadataEvery {
				v.writesSinceMeta = 0
				// Metadata region update: a small distant write.
				v.Disk.Submit(&node.DiskRequest{Op: node.Write, LBA: MetadataBase, Bytes: 4096})
			}
		}
	}
	v.spans = spans
	v.submit(node.Write, spans, done)
}

// CurrentDeltaBytes reports the current delta size, optionally after
// free-block elimination.
func (v *Volume) CurrentDeltaBytes(isFree func(vba int64) bool) int64 {
	return v.Cur.LiveBytes(isFree)
}

// EpochBlocks returns the content-tagged view of the current delta —
// every block dirtied since the last Merge, keyed by virtual block
// address — optionally after free-block elimination. This is the
// per-epoch diff an incremental swap-out uploads and commits to a
// checkpoint Lineage.
func (v *Volume) EpochBlocks(isFree func(vba int64) bool) map[int64]int64 {
	out := make(map[int64]int64, len(v.Cur.Index))
	for vba := range v.Cur.Index {
		if isFree != nil && isFree(vba) {
			continue
		}
		out[vba] = v.content[vba]
	}
	return out
}

// Snapshot returns the content-tagged view of every block ever written
// (current plus aggregated history), optionally after free-block
// elimination — the "full checkpoint" a replayed delta chain must
// reconstruct exactly.
func (v *Volume) Snapshot(isFree func(vba int64) bool) map[int64]int64 {
	out := make(map[int64]int64, len(v.content))
	for vba, tag := range v.content {
		if isFree != nil && isFree(vba) {
			continue
		}
		out[vba] = tag
	}
	return out
}

// Merge folds the current delta into the aggregated delta and empties
// it, as the offline post-swap-out step does. When reorder is true the
// merged log is re-sorted by virtual block address, restoring locality
// for subsequent sequential reads; isFree (optional) drops freed blocks.
// It reports the merged delta's size in bytes.
//
// The merge works in place: the aggregated index and log order are
// rebuilt inside their own map and slice, and the current delta is
// cleared rather than replaced, so a volume going through swap cycles
// reuses the same storage every epoch. A caller must therefore not hold
// v.Agg or v.Cur, or their Index or Order, across a merge; the swap
// pipeline only reads Cur.Slots() before it merges.
func (v *Volume) Merge(reorder bool, isFree func(vba int64) bool) int64 {
	agg, cur := v.Agg, v.Cur
	// Fold the current blocks into the aggregated index; every slot is
	// reassigned below.
	for vba := range cur.Index {
		agg.Index[vba] = -1
	}
	if isFree != nil {
		for vba := range agg.Index {
			if isFree(vba) {
				// Eliminated for good: the block leaves the delta history, so
				// reads fall through to golden and the content view must agree.
				delete(agg.Index, vba)
				delete(v.content, vba)
			}
		}
	}
	vbas := agg.Order[:0]
	if reorder {
		for vba := range agg.Index {
			vbas = append(vbas, vba)
		}
		slices.Sort(vbas)
		for slot, vba := range vbas {
			agg.Index[vba] = int64(slot)
		}
	} else {
		// Preserve historical append order: aggregated first, then
		// current, each surviving block taking a slot at its first
		// appearance (-1 marks one not yet placed). agg.Order holds each
		// block once, so compacting it in place never writes ahead of
		// the read position.
		for vba := range agg.Index {
			agg.Index[vba] = -1
		}
		for _, order := range [2][]int64{agg.Order, cur.Order} {
			for _, vba := range order {
				if slot, ok := agg.Index[vba]; ok && slot < 0 {
					agg.Index[vba] = int64(len(vbas))
					vbas = append(vbas, vba)
				}
			}
		}
	}
	agg.Order = vbas
	clear(cur.Index)
	cur.Order = cur.Order[:0]
	v.writesSinceMeta = 0
	return agg.Bytes()
}

// String summarizes the volume for diagnostics.
func (v *Volume) String() string {
	return fmt.Sprintf("volume[%s] golden=%dMB agg=%dMB cur=%dMB",
		v.Mode, v.GoldenBytes>>20, v.Agg.Bytes()>>20, v.Cur.Bytes()>>20)
}
