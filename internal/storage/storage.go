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
// Reads cost a binary search of the current delta's run (after a scan of
// its short tail of out-of-order writes), then one of the aggregated
// delta, then fall through to golden's linear addressing. No level
// hashes: both deltas are runs of blocks sorted by virtual address, so
// an epoch commit or a merge reads them in one linear pass.
//
// After a swap-out, the current delta is merged into the aggregated
// delta offline; the merge lays blocks out by virtual address to restore
// locality lost across repeated swap cycles (§5.3).
package storage

import (
	"cmp"
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

// Block is a virtual block address (VBA) tagged with the sequence number
// of the write that last filled it: equal tags mean the same bytes, so
// views of a volume compare for byte-identity without storing data.
// Blocks travel as runs: sorted by VBA, each VBA at most once.
type Block struct {
	VBA, Tag int64
}

// find reports where vba is, or would go, in the run.
func find(run []Block, vba int64) (int, bool) {
	return slices.BinarySearchFunc(run, vba, func(b Block, vba int64) int { return cmp.Compare(b.VBA, vba) })
}

// mergeRuns merges run add into run dst, add winning where both hold a
// VBA. It works backwards inside dst's storage (grown if short), so a
// dst with spare capacity costs no allocation; add is only read.
func mergeRuns(dst, add []Block) []Block {
	i, k := len(dst)-1, len(dst)+len(add)-1
	dst = slices.Grow(dst, len(add))[:k+1]
	for j := len(add) - 1; j >= 0; k-- {
		if i >= 0 && dst[i].VBA > add[j].VBA {
			dst[k], i = dst[i], i-1
			continue
		}
		if i >= 0 && dst[i].VBA == add[j].VBA {
			i-- // superseded
		}
		dst[k], j = add[j], j-1
	}
	// Each superseded block left one unwritten slot between dst[:i+1]
	// and the merged tail dst[k+1:].
	if k > i {
		dst = dst[:i+1+copy(dst[i+1:], dst[k+1:])]
	}
	return dst
}

// maxTail bounds a delta's out-of-order tail: the appends a lookup
// scans linearly before normalize folds them into the sorted run.
const maxTail = 256

// Delta is the current delta: an append-only on-disk redo log, indexed
// by a run of its blocks with Tag holding each block's log slot.
//
// The index is run[:sorted], a proper run, followed by a tail of
// out-of-order appends in log order. An append above the run's last
// block, or an overwrite of a block the run holds, keeps the tail
// empty; that covers sequential and rewriting streams, so a typical
// delta never leaves the run. Anything else joins the tail, which
// normalize merges into the run when it reaches maxTail or a reader
// needs the whole delta in VBA order.
type Delta struct {
	// BaseLBA is the byte LBA where the delta's log region starts.
	BaseLBA int64

	slots   int64 // log slots appended
	run     []Block
	sorted  int
	scratch []Block // normalize's copy of the tail
}

// NewDelta creates an empty delta whose log lives at base.
func NewDelta(base int64) *Delta {
	return &Delta{BaseLBA: base}
}

// Slots reports occupied log slots.
func (d *Delta) Slots() int { return int(d.slots) }

// Bytes reports the delta's on-disk size.
func (d *Delta) Bytes() int64 { return d.slots * BlockSize }

// LiveBytes reports the delta size after free-block elimination: blocks
// the filesystem has freed are dropped (§5.1).
func (d *Delta) LiveBytes(isFree func(vba int64) bool) int64 {
	if isFree == nil {
		return d.Bytes()
	}
	d.normalize()
	var n int64
	for _, b := range d.run {
		if !isFree(b.VBA) {
			n += BlockSize
		}
	}
	return n
}

// lookup reports the physical LBA for vba, or -1. The tail is scanned
// newest first, so the latest write wins.
func (d *Delta) lookup(vba int64) int64 {
	for i := len(d.run) - 1; i >= d.sorted; i-- {
		if d.run[i].VBA == vba {
			return d.BaseLBA + d.run[i].Tag*BlockSize
		}
	}
	if i, ok := find(d.run[:d.sorted], vba); ok {
		return d.BaseLBA + d.run[i].Tag*BlockSize
	}
	return -1
}

// append adds (or overwrites) vba at the log head and reports the
// physical LBA written.
func (d *Delta) append(vba int64) int64 {
	slot := d.slots
	d.slots++
	switch n := len(d.run); {
	case n > d.sorted:
		d.run = append(d.run, Block{VBA: vba, Tag: slot})
		if n+1-d.sorted >= maxTail {
			d.normalize()
		}
	case n == 0 || d.run[n-1].VBA < vba:
		d.run = append(d.run, Block{VBA: vba, Tag: slot})
		d.sorted++
	default:
		if i, ok := find(d.run, vba); ok {
			d.run[i].Tag = slot
		} else {
			d.run = append(d.run, Block{VBA: vba, Tag: slot})
		}
	}
	return d.BaseLBA + slot*BlockSize
}

// normalize folds the tail into the run. The tail is copied aside
// first: mergeRuns grows the run over the tail's storage.
func (d *Delta) normalize() {
	if len(d.run) == d.sorted {
		return
	}
	tail := append(d.scratch[:0], d.run[d.sorted:]...)
	slices.SortFunc(tail, func(a, b Block) int {
		return cmp.Or(cmp.Compare(a.VBA, b.VBA), cmp.Compare(a.Tag, b.Tag))
	})
	// Keep the last (newest) slot of each VBA.
	w := 0
	for i, b := range tail {
		if i+1 < len(tail) && tail[i+1].VBA == b.VBA {
			continue
		}
		tail[w], w = b, w+1
	}
	d.run = mergeRuns(d.run[:d.sorted], tail[:w])
	d.sorted = len(d.run)
	d.scratch = tail
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
	// Agg is the aggregated delta (all changes from previous swap-ins)
	// as a run laid out in VBA order: Agg[i] is in log slot i, counted
	// from AggBase. Cur is the current delta (changes since the last
	// swap-in).
	Agg []Block
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

	// merged counts the block writes merged into Agg. Each block write
	// is tagged with the next sequence number, so current-delta slot s
	// holds tag merged+s+1.
	merged int64

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
	if i, ok := find(v.Agg, vba); ok {
		v.ReadsAgg++
		return AggBase + int64(i)*BlockSize
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

// curRun appends the current delta to dst as a run, each block tagged
// by its write's sequence number, leaving out blocks isFree (optional)
// reports freed, in one pass over the normalized delta. dst may be the
// delta's own run, which it rewrites.
func (v *Volume) curRun(dst []Block, isFree func(vba int64) bool) []Block {
	for _, b := range v.Cur.run {
		if isFree == nil || !isFree(b.VBA) {
			dst = append(dst, Block{VBA: b.VBA, Tag: v.merged + b.Tag + 1})
		}
	}
	return dst
}

// EpochBlocks returns the current delta — every block dirtied since the
// last Merge — as a fresh run, optionally after free-block elimination.
// This is the per-epoch diff an incremental swap-out uploads and commits
// to a checkpoint Lineage, which takes the run over.
func (v *Volume) EpochBlocks(isFree func(vba int64) bool) []Block {
	v.Cur.normalize()
	return v.curRun(make([]Block, 0, len(v.Cur.run)), isFree)
}

// Snapshot returns the content-tagged view of every block ever written
// (current plus aggregated history) as a fresh run, optionally after
// free-block elimination — the "full checkpoint" a replayed delta chain
// must reconstruct exactly.
func (v *Volume) Snapshot(isFree func(vba int64) bool) []Block {
	v.Cur.normalize()
	out := mergeRuns(slices.Clone(v.Agg), v.curRun(nil, nil))
	if isFree != nil {
		out = slices.DeleteFunc(out, func(b Block) bool { return isFree(b.VBA) })
	}
	return out
}

// Merge folds the current delta into the aggregated delta and empties
// it, as the offline post-swap-out step does. The merged log is laid
// out by virtual block address, restoring locality for subsequent
// sequential reads (§5.3); isFree (optional) drops freed blocks for
// good, so reads fall through to golden. It reports the merged delta's
// size in bytes.
//
// The merge works in place: the current delta's run is retagged within
// its own storage, then joins the aggregated run in one linear pass
// within the aggregated run's storage. The current delta is cleared,
// not replaced, so swap cycles reuse the same storage. A caller must
// not hold v.Agg across a merge; the swap pipeline only reads
// Cur.Slots() before it merges.
func (v *Volume) Merge(isFree func(vba int64) bool) int64 {
	cur := v.Cur
	if isFree != nil {
		v.Agg = slices.DeleteFunc(v.Agg, func(b Block) bool { return isFree(b.VBA) })
	}
	cur.normalize()
	v.Agg = mergeRuns(v.Agg, v.curRun(cur.run[:0], isFree))
	v.merged += cur.slots
	cur.slots, cur.run, cur.sorted = 0, cur.run[:0], 0
	v.writesSinceMeta = 0
	return int64(len(v.Agg)) * BlockSize
}

// String summarizes the volume for diagnostics.
func (v *Volume) String() string {
	return fmt.Sprintf("volume[%s] golden=%dMB agg=%dMB cur=%dMB",
		v.Mode, v.GoldenBytes>>20, int64(len(v.Agg))*BlockSize>>20, v.Cur.Bytes()>>20)
}
