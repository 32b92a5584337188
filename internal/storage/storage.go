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
// Reads cost a binary search of the current delta's short tail of
// out-of-order writes and of its run, then one of the aggregated delta,
// then fall through to golden's linear addressing. No level hashes:
// both deltas are runs of extents sorted by virtual address, so an
// epoch commit or a merge reads them in one linear pass, and a
// sequential stream costs one extent however long it grows.
//
// After a swap-out, the current delta is merged into the aggregated
// delta offline; the merge lays blocks out by virtual address to restore
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

// extent is N blocks at consecutive VBAs from VBA whose tags count up
// from Tag: log slots in the current delta, content tags in the
// aggregated one and in a Run. A run of extents is sorted by VBA and
// disjoint, and an extent that continues its predecessor in both VBA
// and tag joins it, so a sequential stream is one extent however long
// it grows.
type extent struct {
	VBA, N, Tag int64
}

func (e extent) end() int64 { return e.VBA + e.N }

// continues reports whether e starts where p ends, in VBA and in tag.
func (e extent) continues(p extent) bool {
	return p.end() == e.VBA && p.Tag+p.N == e.Tag
}

// appendExt appends e to run, joining run's last extent when e
// continues it.
func appendExt(run []extent, e extent) []extent {
	if n := len(run); n > 0 && e.continues(run[n-1]) {
		run[n-1].N += e.N
		return run
	}
	return append(run, e)
}

// findExt reports the index of the first extent of run ending above
// vba, and whether that extent holds vba.
func findExt(run []extent, vba int64) (int, bool) {
	i, j := 0, len(run)
	for i < j {
		h := int(uint(i+j) >> 1)
		if run[h].end() <= vba {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(run) && run[i].VBA <= vba
}

// startsBelow reports how many of run[:i] start below vba, galloping
// down from i: the cost grows with the log of the extents passed over,
// not of i.
func startsBelow(run []extent, i int, vba int64) int {
	lo, hi := i-1, i // run[hi:i] start at or above vba
	for step := 1; lo >= 0 && run[lo].VBA >= vba; step *= 2 {
		hi, lo = lo, lo-step
	}
	lo = max(lo, -1) // run[lo] starts below vba
	for lo+1 < hi {
		if m := int(uint(lo+hi) >> 1); run[m].VBA >= vba {
			hi = m
		} else {
			lo = m
		}
	}
	return hi
}

// putExt writes e just below the merged tail dst[k:], or joins the
// tail's first extent when that continues e, and returns the tail's
// new start.
func putExt(dst []extent, k int, e extent) int {
	if k < len(dst) && dst[k].continues(e) {
		dst[k].VBA, dst[k].N, dst[k].Tag = e.VBA, e.N+dst[k].N, e.Tag
		return k
	}
	dst[k-1] = e
	return k - 1
}

// mergeExtents merges run add into run dst, add winning wherever both
// hold a block: a dst extent keeps only its parts outside add, which
// may split it in two. It works backwards inside dst's storage, grown
// by two extents per add extent (each add extent writes itself and at
// most one split-off part), so a dst with spare capacity costs no
// allocation; add is only read. Extents of dst wholly between two add
// extents move as one copy.
func mergeExtents(dst, add []extent) []extent {
	if len(add) == 0 {
		return dst
	}
	n := len(dst)
	dst = slices.Grow(dst, 2*len(add))[:n+2*len(add)]
	k, i := len(dst), n // the merged tail is dst[k:]; dst[:i] is unread
	var d extent        // the unmerged part of dst[i] while d.N > 0
	for j := len(add) - 1; j >= 0; {
		a := add[j]
		if d.N == 0 {
			if i == 0 {
				k, j = putExt(dst, k, a), j-1
				continue
			}
			i--
			d = dst[i]
		}
		switch {
		case d.VBA >= a.end(): // above a, as is every unread extent from lo
			k, d.N = putExt(dst, k, d), 0
			lo := startsBelow(dst, i, a.end())
			k -= copy(dst[k-(i-lo):k], dst[lo:i])
			i = lo
		case d.end() > a.end(): // the part above a is kept
			off := a.end() - d.VBA
			k = putExt(dst, k, extent{VBA: a.end(), N: d.N - off, Tag: d.Tag + off})
			d.N = off
		case d.VBA >= a.VBA: // superseded
			d.N = 0
		default: // the part below a is kept, after a
			d.N = min(d.N, a.VBA-d.VBA)
			k, j = putExt(dst, k, a), j-1
		}
	}
	// The loop ends holding the lower part of dst[i], whose start is
	// unchanged, or with all of dst read, so nothing joins dst[:i]: it
	// stays in place and the merged tail closes up behind it.
	if d.N > 0 {
		k = putExt(dst, k, d)
	}
	return dst[:i+copy(dst[i:], dst[k:])]
}

// appendLive appends the blocks of run that isFree (optional) does
// not report freed to dst as extents, their tags shifted by shift.
func appendLive(dst, run []extent, shift int64, isFree func(vba int64) bool) []extent {
	for _, e := range run {
		e.Tag += shift
		if isFree == nil {
			dst = appendExt(dst, e)
			continue
		}
		for o := range e.N {
			if !isFree(e.VBA + o) {
				dst = appendExt(dst, extent{VBA: e.VBA + o, N: 1, Tag: e.Tag + o})
			}
		}
	}
	return dst
}

// Run is a checkpoint's block content, as an epoch, a snapshot or a
// replayed lineage holds it: a run of extents whose tags are content
// tags, as in the aggregated delta. Equal tags mean the same bytes, so
// views of a volume compare for byte-identity without storing data,
// and a run is canonical, so two views are equal iff their runs are.
type Run []extent

// Blocks counts the blocks of the run.
func (r Run) Blocks() int64 {
	var n int64
	for _, e := range r {
		n += e.N
	}
	return n
}

// freed counts the blocks of run that isFree reports freed.
func freed(run []extent, isFree func(vba int64) bool) int64 {
	var n int64
	for _, e := range run {
		for o := range e.N {
			if isFree(e.VBA + o) {
				n++
			}
		}
	}
	return n
}

// maxTail bounds a delta's tail: the extents it holds before
// normalize folds them into the run.
const maxTail = 256

// Delta is the current delta: an append-only on-disk redo log, indexed
// by runs of extents whose tags are log slots.
//
// The index is a run and a tail, a second run of writes newer than
// any in the run. A write at or above the run's last extent, covering
// that extent's end, goes to the run while the tail is empty: it trims
// the blocks it overwrites off the last extent and joins it if it
// continues the extent, so a sequential stream stays one extent and a
// typical delta never has a tail. Any other write merges into the tail,
// which normalize merges into the run when it reaches maxTail extents
// or a reader needs the whole delta as one run. A lookup binary-searches
// the tail, then the run.
type Delta struct {
	// BaseLBA is the byte LBA where the delta's log region starts.
	BaseLBA int64

	slots     int64 // log slots appended
	run, tail []extent
}

// Slots reports occupied log slots.
func (d *Delta) Slots() int { return int(d.slots) }

// Bytes reports the delta's on-disk size.
func (d *Delta) Bytes() int64 { return d.slots * BlockSize }

// lookup reports the physical LBA for vba, or -1. The tail is searched
// first: its writes are the newer.
func (d *Delta) lookup(vba int64) int64 {
	run := d.tail
	i, ok := findExt(run, vba)
	if !ok {
		run = d.run
		if i, ok = findExt(run, vba); !ok {
			return -1
		}
	}
	return d.BaseLBA + (run[i].Tag+vba-run[i].VBA)*BlockSize
}

// append logs n blocks from vba at the log head and reports the
// physical LBA of the first.
func (d *Delta) append(vba, n int64) int64 {
	e := extent{VBA: vba, N: n, Tag: d.slots}
	d.slots += n
	switch k := len(d.run); {
	case len(d.tail) > 0 || k > 0 && (vba < d.run[k-1].VBA || e.end() < d.run[k-1].end()):
		d.tail = mergeExtents(d.tail, []extent{e})
		if len(d.tail) >= maxTail {
			d.normalize()
		}
	case k > 0 && vba < d.run[k-1].end():
		// Overwrites the last extent's end: trim it off.
		if last := &d.run[k-1]; last.VBA == vba {
			d.run = d.run[:k-1]
		} else {
			last.N = vba - last.VBA
		}
		fallthrough
	default:
		d.run = appendExt(d.run, e)
	}
	return d.BaseLBA + e.Tag*BlockSize
}

// normalize merges the tail into the run.
func (d *Delta) normalize() {
	d.run = mergeExtents(d.run, d.tail)
	d.tail = d.tail[:0]
}

// Extents is the aggregated delta: a run of extents tagged with their
// blocks' content tags, laid out on disk in VBA order, so block o of
// run[i] sits in log slot first[i]+o, counted from AggBase.
type Extents struct {
	run   []extent
	first []int64
}

// index recomputes each extent's first log slot.
func (x *Extents) index() {
	x.first = x.first[:0]
	var slot int64
	for _, e := range x.run {
		x.first = append(x.first, slot)
		slot += e.N
	}
}

// Blocks reports the blocks the aggregated delta holds.
func (x *Extents) Blocks() int64 {
	n := len(x.run)
	if n == 0 {
		return 0
	}
	return x.first[n-1] + x.run[n-1].N
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
	// Agg is the aggregated delta (all changes from previous swap-ins),
	// laid out in VBA order. Cur is the current delta (changes since
	// the last swap-in).
	Agg Extents
	Cur *Delta

	// MetadataEvery controls how often a redo-log append must also
	// update an on-disk metadata region (a long seek). On a fresh disk
	// this happens frequently; as the disk ages and metadata regions
	// fill, the overhead disappears (§7.1 Fig. 8 discussion). Zero
	// disables metadata writes ("aged" disk).
	MetadataEvery int

	writesSinceMeta int

	// spans is Read's scratch request list. Disk submission never
	// calls back synchronously, so no call re-enters while it is in use.
	spans []span

	// spare is Merge's scratch run.
	spare []extent

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
		Cur:           &Delta{BaseLBA: CurBase},
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
	if i, ok := findExt(v.Agg.run, vba); ok {
		v.ReadsAgg++
		return AggBase + (v.Agg.first[i]+vba-v.Agg.run[i].VBA)*BlockSize
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

// Write implements the guest block backend write path. The request's
// blocks take consecutive log slots, so the data is one disk write;
// the metadata and copy-aside requests its blocks incur go first, in
// block order.
func (v *Volume) Write(off, n int64, done func()) {
	if n <= 0 {
		panic("storage: empty write")
	}
	if v.Mode == Raw {
		v.submit(node.Write, []span{{lba: GoldenBase + off, n: n}}, done)
		return
	}
	first, last := off/BlockSize, (off+n-1)/BlockSize
	for b := first; b <= last; b++ {
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
		if v.MetadataEvery > 0 {
			v.writesSinceMeta++
			if v.writesSinceMeta >= v.MetadataEvery {
				v.writesSinceMeta = 0
				// Metadata region update: a small distant write.
				v.Disk.Submit(&node.DiskRequest{Op: node.Write, LBA: MetadataBase, Bytes: 4096})
			}
		}
	}
	blocks := last - first + 1
	v.Disk.Submit(&node.DiskRequest{Op: node.Write, LBA: v.Cur.append(first, blocks), Bytes: blocks * BlockSize, Done: done})
}

// CurrentDeltaBytes reports the current delta size, optionally after
// free-block elimination: blocks the filesystem has freed are dropped
// (§5.1).
func (v *Volume) CurrentDeltaBytes(isFree func(vba int64) bool) int64 {
	if isFree == nil {
		return v.Cur.Bytes()
	}
	v.Cur.normalize()
	return (Run(v.Cur.run).Blocks() - freed(v.Cur.run, isFree)) * BlockSize
}

// EpochBlocks returns the current delta — every block dirtied since the
// last Merge — as a fresh run, optionally after free-block elimination.
// Each block is tagged by its write's sequence number: current-delta
// slot s holds tag merged+s+1. This is the per-epoch diff an
// incremental swap-out uploads and commits to a checkpoint Lineage,
// which takes the run over.
func (v *Volume) EpochBlocks(isFree func(vba int64) bool) Run {
	v.Cur.normalize()
	return appendLive(make(Run, 0, len(v.Cur.run)), v.Cur.run, v.merged+1, isFree)
}

// Snapshot returns the content-tagged view of every block ever written
// (current plus aggregated history) as a fresh run, optionally after
// free-block elimination — the "full checkpoint" a replayed delta chain
// must reconstruct exactly.
func (v *Volume) Snapshot(isFree func(vba int64) bool) Run {
	v.Cur.normalize()
	return mergeExtents(appendLive(nil, v.Agg.run, 0, isFree), appendLive(nil, v.Cur.run, v.merged+1, isFree))
}

// Merge folds the current delta into the aggregated delta and empties
// it, as the offline post-swap-out step does. The merged log is laid
// out by virtual block address, restoring locality for subsequent
// sequential reads (§5.3); isFree (optional) drops freed blocks for
// good, so reads fall through to golden. It reports the merged delta's
// size in bytes.
//
// The merge reuses storage: the current delta's run is retagged into a
// scratch run, which joins the aggregated run in one newest-wins pass
// within the aggregated run's storage. The current delta is cleared,
// not replaced, so swap cycles reuse the same storage. A caller must
// not hold v.Agg across a merge; the swap pipeline only reads
// Cur.Slots() before it merges.
func (v *Volume) Merge(isFree func(vba int64) bool) int64 {
	cur := v.Cur
	cur.normalize()
	if isFree != nil {
		v.spare, v.Agg.run = v.Agg.run, appendLive(v.spare[:0], v.Agg.run, 0, isFree)
	}
	add := appendLive(v.spare[:0], cur.run, v.merged+1, isFree)
	v.Agg.run, v.spare = mergeExtents(v.Agg.run, add), add
	v.Agg.index()
	v.merged += cur.slots
	cur.slots, cur.run = 0, cur.run[:0]
	v.writesSinceMeta = 0
	return v.Agg.Blocks() * BlockSize
}

// String summarizes the volume for diagnostics.
func (v *Volume) String() string {
	return fmt.Sprintf("volume[%s] golden=%dMB agg=%dMB cur=%dMB",
		v.Mode, v.GoldenBytes>>20, v.Agg.Blocks()*BlockSize>>20, v.Cur.Bytes()>>20)
}
