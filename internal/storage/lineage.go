package storage

import (
	"fmt"
	"slices"
)

// Epoch is one committed incremental checkpoint: the set of blocks
// dirtied since the parent epoch (content-tagged so reconstruction can
// be verified byte-identical) plus the dirty memory pages saved with it.
type Epoch struct {
	// ID orders epochs within a lineage; the parent is the previous
	// epoch in the chain (or the merged base).
	ID int
	// Run holds the dirtied blocks with their content tags. A run held
	// in a ChainStore is never mutated: a fold works on an exclusive
	// copy, a drop on a fresh run.
	Run Run
	// MemPages is the count of dirty memory pages captured in this epoch.
	MemPages int
}

// DiskBytes reports the epoch's disk-delta size.
func (e *Epoch) DiskBytes() int64 { return e.Run.Blocks() * BlockSize }

// Lineage is the server-side checkpoint chain of one swappable node: a
// merged base plus an ordered chain of incremental epochs, all held by
// reference in a ChainStore. A swap-out commits the epoch's dirty
// delta; a swap-in reconstructs the node's state by replaying base +
// chain in order (later epochs win). Chains deeper than MaxDepth are
// merged from the oldest end into the base — an offline server-side
// step, like the paper's §5.3 delta merge — so replay cost stays
// bounded no matter how many swap cycles accumulate.
//
// Branching: Fork creates a sibling lineage sharing this one's base and
// chain by reference (no byte copies). Both sides may keep committing;
// divergence is branch-private, and mutations of shared epochs go
// copy-on-write inside the store. Release drops a branch's references
// so the store can garbage-collect deltas no branch can reach.
type Lineage struct {
	// MaxDepth bounds the replay chain length; Commit folds the oldest
	// epochs into the base past it. Zero means DefaultMaxDepth.
	MaxDepth int

	store    *ChainStore
	base     *Epoch
	baseAddr Addr
	chain    []*Epoch
	addrs    []Addr // content addresses, parallel to chain
	nextID   int
	released bool

	// MergedBytes accumulates disk bytes folded into the base by
	// pruning, the offline server-side work the merge rate pays for.
	MergedBytes int64
}

// DefaultMaxDepth is the chain bound used when MaxDepth is zero: deep
// enough to keep per-cycle commits cheap, shallow enough that replaying
// base + chain stays close to the merged-image size.
const DefaultMaxDepth = 4

// NewLineage creates an empty lineage over a private store with the
// given chain bound (0 = DefaultMaxDepth). Lineages that should share
// branches' storage are created via ChainStore.NewLineage instead.
func NewLineage(maxDepth int) *Lineage {
	return NewChainStore().NewLineage(maxDepth)
}

// Store returns the backing chain store.
func (l *Lineage) Store() *ChainStore { return l.store }

// Commit appends one incremental checkpoint — the run of blocks dirtied
// since the previous commit (as Volume.EpochBlocks returns it) and the
// dirty memory pages saved alongside — and prunes the chain back under
// MaxDepth. Commit takes ownership of run: the caller must neither
// use nor change it afterwards. It returns the committed epoch (the
// store's canonical copy if the content already existed).
func (l *Lineage) Commit(run Run, memPages int) *Epoch {
	e := &Epoch{ID: l.nextID, Run: run, MemPages: memPages}
	l.nextID++
	e, a := l.store.retain(e)
	l.chain = append(l.chain, e)
	l.addrs = append(l.addrs, a)
	l.prune()
	return e
}

// prune folds the oldest chain epochs into the base until the chain is
// back under MaxDepth. Overlapping blocks deduplicate (the newer epoch
// wins), which is what keeps replay bytes bounded. The base is taken
// exclusive first (copy-on-write if a sibling branch shares it), so
// pruning one branch never changes what a sibling replays.
func (l *Lineage) prune() {
	for len(l.chain) > l.MaxDepth {
		oldest, oldestAddr := l.chain[0], l.addrs[0]
		l.chain, l.addrs = slices.Delete(l.chain, 0, 1), slices.Delete(l.addrs, 0, 1)
		base := l.store.exclusive(l.baseAddr)
		base.Run = mergeExtents(base.Run, oldest.Run)
		base.MemPages += oldest.MemPages
		base.ID = oldest.ID
		l.MergedBytes += oldest.DiskBytes()
		// The fold subsumed the epoch's content into this branch's base;
		// siblings may still reference the entry, so this is a re-key,
		// not a reclaim.
		l.store.release(oldestAddr, false)
		l.base, l.baseAddr = l.store.retain(base)
	}
}

// Fork creates a branch of this lineage: the base and every chain epoch
// are shared by reference (refcounted in the store, no byte copies).
// Subsequent commits on either side are private to that side.
func (l *Lineage) Fork() *Lineage {
	nl := &Lineage{
		MaxDepth: l.MaxDepth, store: l.store,
		base: l.base, baseAddr: l.baseAddr,
		nextID: l.nextID,
		chain:  append([]*Epoch(nil), l.chain...),
		addrs:  append([]Addr(nil), l.addrs...),
	}
	l.store.retainAddr(l.baseAddr)
	for _, a := range l.addrs {
		l.store.retainAddr(a)
	}
	return nl
}

// Release prunes the branch: every reference this lineage holds is
// dropped, and epochs unreachable from any other branch are
// garbage-collected (counted in the store's GCBytes). The lineage must
// not be used afterwards.
func (l *Lineage) Release() {
	if l.released {
		return
	}
	l.released = true
	l.store.release(l.baseAddr, true)
	for _, a := range l.addrs {
		l.store.release(a, true)
	}
	l.base = &Epoch{}
	l.chain, l.addrs = nil, nil
}

// Released reports whether the branch has been pruned.
func (l *Lineage) Released() bool { return l.released }

// Depth reports the current chain length (excluding the base).
func (l *Lineage) Depth() int { return len(l.chain) }

// Epochs reports how many epochs were ever committed.
func (l *Lineage) Epochs() int { return l.nextID - 1 }

// ReplayBytes reports the disk bytes a swap-in must move to reconstruct
// the node's state: the merged base plus every chain epoch, in order.
// Deduplication only happens at prune time, so blocks rewritten across
// un-pruned epochs are counted (and moved) once per epoch — the price
// of keeping commits cheap, bounded by MaxDepth.
func (l *Lineage) ReplayBytes() int64 {
	n := l.base.DiskBytes()
	for _, e := range l.chain {
		n += e.DiskBytes()
	}
	return n
}

// Segment is one content-addressed unit of a lineage's replay chain:
// the base or one chain epoch, with its transfer size.
type Segment struct {
	Addr  Addr
	Bytes int64
}

// Segments lists the replay chain in restore order (base first). A
// clone-aware restore transfers only the segments whose address is not
// already resident on the target node.
func (l *Lineage) Segments() []Segment {
	out := make([]Segment, 0, 1+len(l.chain))
	out = append(out, Segment{Addr: l.baseAddr, Bytes: l.base.DiskBytes()})
	for i, e := range l.chain {
		out = append(out, Segment{Addr: l.addrs[i], Bytes: e.DiskBytes()})
	}
	return out
}

// MissingBytes reports the replay bytes not covered by the resident
// set — what a clone-aware restore actually has to move.
func (l *Lineage) MissingBytes(resident map[Addr]bool) int64 {
	var n int64
	for _, seg := range l.Segments() {
		if !resident[seg.Addr] {
			n += seg.Bytes
		}
	}
	return n
}

// SharedBytes reports the replay bytes this lineage shares with at
// least one other branch (store refcount > 1).
func (l *Lineage) SharedBytes() int64 {
	var n int64
	for _, seg := range l.Segments() {
		if l.store.Refs(seg.Addr) > 1 {
			n += seg.Bytes
		}
	}
	return n
}

// Materialize replays base + chain in commit order and returns the
// reconstructed content view as a fresh run. Against Volume.Snapshot
// this is the byte-identity check: a block is correct iff its content
// tag matches.
func (l *Lineage) Materialize() Run {
	out := slices.Clone(l.base.Run)
	for _, e := range l.chain {
		out = mergeExtents(out, e.Run)
	}
	return out
}

// Drop removes blocks from every epoch (base and chain) — free-block
// elimination applied retroactively to the server-side history, so a
// replay does not resurrect blocks the filesystem has freed. An epoch
// holding a freed block is replaced by a new epoch holding a fresh
// filtered run, so a sibling branch's replay view never changes; an
// epoch holding none stays as it is.
func (l *Lineage) Drop(isFree func(vba int64) bool) {
	if isFree == nil {
		return
	}
	drop := func(e *Epoch, a Addr) (*Epoch, Addr) {
		if freed(e.Run, isFree) == 0 {
			return e, a
		}
		l.store.release(a, false)
		return l.store.retain(&Epoch{ID: e.ID, MemPages: e.MemPages, Run: appendLive(nil, e.Run, 0, isFree)})
	}
	l.base, l.baseAddr = drop(l.base, l.baseAddr)
	for i := range l.chain {
		l.chain[i], l.addrs[i] = drop(l.chain[i], l.addrs[i])
	}
}

// String summarizes the lineage for diagnostics.
func (l *Lineage) String() string {
	return fmt.Sprintf("lineage[base=%dMB chain=%d replay=%dMB shared=%dMB]",
		l.base.DiskBytes()>>20, len(l.chain), l.ReplayBytes()>>20, l.SharedBytes()>>20)
}
