package storage

import (
	"fmt"
	"slices"
)

// Addr is the content address of a committed epoch: a deterministic
// hash over the epoch's dirtied blocks (sorted by virtual address, with
// their content tags) and its dirty-page count. Two epochs with equal
// addresses carry identical delta content, so the store keeps one copy
// and lineages share it by reference.
type Addr uint64

// addr computes the epoch's content address (FNV-1a over each block's
// VBA and tag in VBA order). The epoch ID is deliberately excluded:
// identity is the delta's content, not its position in any particular
// chain.
func (e *Epoch) addr() Addr {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, x := range e.Run {
		for o := range x.N {
			mix(uint64(x.VBA + o))
			mix(uint64(x.Tag + o))
		}
	}
	mix(uint64(e.MemPages))
	return Addr(h)
}

// entry is one stored epoch plus its reference count: how many lineages
// (branches) currently include it in their replay chain.
type entry struct {
	e    *Epoch
	refs int
}

// ChainStore is the server-side home of checkpoint chains: a refcounted,
// content-addressed epoch store. Lineages forked from the same
// checkpoint share their base and common deltas by reference — no byte
// copies — while divergent commits append branch-private entries.
// Mutating operations (prune folds, retroactive free-block drops) go
// copy-on-write when the epoch is shared, so no branch can perturb a
// sibling's replay. Releasing a branch drops its references; entries no
// longer reachable from any lineage are garbage-collected.
type ChainStore struct {
	epochs map[Addr]*entry

	// GCBytes accumulates disk bytes reclaimed when released branches
	// made entries unreachable.
	GCBytes int64
	// DedupBytes accumulates disk bytes never stored because a commit's
	// content already existed (content-address hit).
	DedupBytes int64

	// tier and cache mirror the store (see Mirror).
	tier  *Tier
	cache *DeltaCache
}

// NewChainStore creates an empty store.
func NewChainStore() *ChainStore {
	return &ChainStore{epochs: make(map[Addr]*entry)}
}

// Mirror keeps a storage tier, and the delta cache in front of it, in
// step with the store: every entry entering the store (first reference
// to a content address) is put on the tier, and entries leaving it —
// the last reference released (GC), or a copy-on-write fold re-keying
// the base under a new address — leave the tier and the cache, so dead
// segments stop holding capacity against live ones. The cache mirrors
// only alongside a tier; a nil tier detaches both.
func (cs *ChainStore) Mirror(t *Tier, c *DeltaCache) {
	if t == nil {
		c = nil
	}
	cs.tier, cs.cache = t, c
}

// dropped forgets a departed entry on the mirrored tier and cache.
func (cs *ChainStore) dropped(a Addr) {
	if cs.tier != nil {
		cs.tier.Delete(a)
	}
	if cs.cache != nil {
		cs.cache.Drop(a)
	}
}

// NewLineage creates an empty lineage backed by this store
// (maxDepth 0 = DefaultMaxDepth).
func (cs *ChainStore) NewLineage(maxDepth int) *Lineage {
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	l := &Lineage{MaxDepth: maxDepth, store: cs, nextID: 1}
	l.base, l.baseAddr = cs.retain(&Epoch{ID: 0})
	return l
}

// retain registers e (or finds its content-identical twin) and returns
// the canonical epoch plus its address, holding one new reference.
func (cs *ChainStore) retain(e *Epoch) (*Epoch, Addr) {
	a := e.addr()
	if ent, ok := cs.epochs[a]; ok {
		ent.refs++
		if ent.e != e {
			cs.DedupBytes += e.DiskBytes()
		}
		return ent.e, a
	}
	cs.epochs[a] = &entry{e: e, refs: 1}
	if cs.tier != nil {
		cs.tier.Put(a, e.DiskBytes())
	}
	return e, a
}

// retainAddr adds a reference to an already-stored address (fork path).
func (cs *ChainStore) retainAddr(a Addr) {
	cs.epochs[a].refs++
}

// release drops one reference; at zero the entry leaves the store. gc
// selects whether the reclaimed bytes count toward GCBytes (a branch
// released them) or not (an internal re-key during fold/drop subsumed
// the content elsewhere).
func (cs *ChainStore) release(a Addr, gc bool) {
	ent, ok := cs.epochs[a]
	if !ok {
		return
	}
	ent.refs--
	if ent.refs <= 0 {
		delete(cs.epochs, a)
		if gc {
			cs.GCBytes += ent.e.DiskBytes()
		}
		cs.dropped(a)
	}
}

// exclusive hands back an epoch the caller may mutate, consuming the
// caller's reference: the stored epoch itself when this was the sole
// referent, otherwise a private copy (copy-on-write) so sibling chains
// keep replaying byte-identically. The caller re-retains the epoch
// after mutating it (its address will have changed).
func (cs *ChainStore) exclusive(a Addr) *Epoch {
	e := cs.epochs[a].e
	if cs.release(a, false); cs.Refs(a) == 0 {
		return e
	}
	return &Epoch{ID: e.ID, MemPages: e.MemPages, Run: slices.Clone(e.Run)}
}

// Refs reports how many lineages reference the address (0 if absent).
func (cs *ChainStore) Refs(a Addr) int {
	if ent, ok := cs.epochs[a]; ok {
		return ent.refs
	}
	return 0
}

// Entries reports how many unique epochs the store holds.
func (cs *ChainStore) Entries() int { return len(cs.epochs) }

// StoredBytes reports the unique disk bytes resident in the store — the
// server-side footprint all branches share. Compare against the sum of
// per-lineage ReplayBytes to see what content addressing saved.
func (cs *ChainStore) StoredBytes() int64 {
	var n int64
	for _, ent := range cs.epochs {
		n += ent.e.DiskBytes()
	}
	return n
}

// Audit cross-checks the store against the reference counts the live
// lineages imply: expected maps each address to the number of chain
// segments that should hold it. It reports every discrepancy — an entry
// whose refcount disagrees with its referents, a non-positive refcount
// (a GC leak in waiting), or an orphaned entry no lineage can reach.
// An empty result means the store and its lineages are consistent.
func (cs *ChainStore) Audit(expected map[Addr]int) []error {
	var errs []error
	for a, ent := range cs.epochs {
		if ent.refs <= 0 {
			errs = append(errs, fmt.Errorf("storage: entry %#x has non-positive refcount %d", uint64(a), ent.refs))
		}
		want, ok := expected[a]
		if !ok {
			errs = append(errs, fmt.Errorf("storage: orphaned entry %#x (refs=%d, %d bytes) unreachable from any live lineage",
				uint64(a), ent.refs, ent.e.DiskBytes()))
			continue
		}
		if ent.refs != want {
			errs = append(errs, fmt.Errorf("storage: entry %#x refcount %d, live lineages reference it %d times",
				uint64(a), ent.refs, want))
		}
	}
	for a, want := range expected {
		if _, ok := cs.epochs[a]; !ok {
			errs = append(errs, fmt.Errorf("storage: lineages reference %#x (%d refs) but the store lost it", uint64(a), want))
		}
	}
	return errs
}
