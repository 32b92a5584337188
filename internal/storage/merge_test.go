package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"emucheck/internal/sim"
)

// The map-based model below is the volume and checkpoint-chain
// bookkeeping that the sorted extent runs replaced, kept as the oracle:
// hash indexes for both deltas, a content map tagging every written
// block, and epochs holding map[VBA]tag, addressed by collecting and
// sorting their keys.

// refVolume models a Volume's two delta indexes and its content view.
type refVolume struct {
	aggIndex, curIndex map[int64]int64
	aggOrder, curOrder []int64
	content            map[int64]int64
	writeSeq           int64
}

func newRefVolume() *refVolume {
	return &refVolume{aggIndex: map[int64]int64{}, curIndex: map[int64]int64{}, content: map[int64]int64{}}
}

// write records a Volume.Write of n blocks from first.
func (r *refVolume) write(first, n int64) {
	for vba := first; vba < first+n; vba++ {
		r.writeSeq++
		r.content[vba] = r.writeSeq
		r.curIndex[vba] = int64(len(r.curOrder))
		r.curOrder = append(r.curOrder, vba)
	}
}

// merge is Merge: the surviving blocks of both deltas take fresh slots
// by VBA.
func (r *refVolume) merge(isFree func(vba int64) bool) int64 {
	freed := func(vba int64) bool { return isFree != nil && isFree(vba) }
	var vbas []int64
	seen := make(map[int64]bool)
	for _, vba := range append(slices.Clone(r.aggOrder), r.curOrder...) {
		if freed(vba) {
			delete(r.content, vba)
		} else if !seen[vba] {
			seen[vba] = true
			vbas = append(vbas, vba)
		}
	}
	slices.Sort(vbas)
	r.aggIndex, r.aggOrder = make(map[int64]int64), vbas
	for slot, vba := range vbas {
		r.aggIndex[vba] = int64(slot)
	}
	r.curIndex, r.curOrder = make(map[int64]int64), nil
	return int64(len(vbas)) * BlockSize
}

// view returns the content tags of the blocks of idx that isFree
// (optional) does not report freed.
func (r *refVolume) view(idx map[int64]int64, isFree func(vba int64) bool) map[int64]int64 {
	out := make(map[int64]int64)
	for vba := range idx {
		if isFree == nil || !isFree(vba) {
			out[vba] = r.content[vba]
		}
	}
	return out
}

// lba is locate: current delta, then aggregated delta, then golden.
func (r *refVolume) lba(vba int64) int64 {
	if slot, ok := r.curIndex[vba]; ok {
		return CurBase + slot*BlockSize
	}
	if slot, ok := r.aggIndex[vba]; ok {
		return AggBase + slot*BlockSize
	}
	return GoldenBase + vba*BlockSize
}

// Block is the model's unit: a virtual block address and the content
// tag of the write that last filled it.
type Block struct {
	VBA, Tag int64
}

// runFrom is the run holding blocks, given in any order, each VBA at
// most once.
func runFrom(blocks []Block) Run {
	blocks = slices.Clone(blocks)
	slices.SortFunc(blocks, func(a, b Block) int { return cmp.Compare(a.VBA, b.VBA) })
	var run Run
	for _, b := range blocks {
		run = appendExt(run, extent{VBA: b.VBA, N: 1, Tag: b.Tag})
	}
	return run
}

// expand lists the blocks of run in VBA order.
func expand(run []extent) []Block {
	var out []Block
	for _, e := range run {
		for o := range e.N {
			out = append(out, Block{e.VBA + o, e.Tag + o})
		}
	}
	return out
}

// runOf is the run a map view must equal.
func runOf(m map[int64]int64) Run {
	out := make([]Block, 0, len(m))
	for vba, tag := range m {
		out = append(out, Block{vba, tag})
	}
	return runFrom(out)
}

type refEpoch struct {
	blocks   map[int64]int64
	memPages int
}

func (e *refEpoch) bytes() int64 { return int64(len(e.blocks)) * BlockSize }

// addr is the content address computed from the map: keys collected,
// sorted, and hashed with their tags, then the page count.
func (e *refEpoch) addr() Addr {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	vbas := make([]int64, 0, len(e.blocks))
	for vba := range e.blocks {
		vbas = append(vbas, vba)
	}
	slices.Sort(vbas)
	for _, vba := range vbas {
		mix(uint64(vba))
		mix(uint64(e.blocks[vba]))
	}
	mix(uint64(e.memPages))
	return Addr(h)
}

type refEntry struct {
	e    *refEpoch
	refs int
}

// refStore models ChainStore: refcounted, content-addressed epochs.
type refStore struct {
	epochs              map[Addr]*refEntry
	gcBytes, dedupBytes int64
}

func (cs *refStore) retain(e *refEpoch) (*refEpoch, Addr) {
	a := e.addr()
	if ent, ok := cs.epochs[a]; ok {
		ent.refs++
		if ent.e != e {
			cs.dedupBytes += e.bytes()
		}
		return ent.e, a
	}
	cs.epochs[a] = &refEntry{e: e, refs: 1}
	return e, a
}

func (cs *refStore) release(a Addr, gc bool) {
	ent := cs.epochs[a]
	if ent.refs--; ent.refs == 0 {
		delete(cs.epochs, a)
		if gc {
			cs.gcBytes += ent.e.bytes()
		}
	}
}

func (cs *refStore) exclusive(a Addr) *refEpoch {
	ent := cs.epochs[a]
	if ent.refs == 1 {
		delete(cs.epochs, a)
		return ent.e
	}
	ent.refs--
	return &refEpoch{blocks: maps.Clone(ent.e.blocks), memPages: ent.e.memPages}
}

func (cs *refStore) bytes() int64 {
	var n int64
	for _, ent := range cs.epochs {
		n += ent.e.bytes()
	}
	return n
}

// refLineage models Lineage over a refStore.
type refLineage struct {
	store       *refStore
	maxDepth    int
	base        *refEpoch
	baseAddr    Addr
	chain       []*refEpoch
	addrs       []Addr
	mergedBytes int64
}

func (cs *refStore) newLineage(maxDepth int) *refLineage {
	l := &refLineage{store: cs, maxDepth: maxDepth}
	l.base, l.baseAddr = cs.retain(&refEpoch{blocks: map[int64]int64{}})
	return l
}

func (l *refLineage) commit(blocks map[int64]int64, memPages int) {
	e, a := l.store.retain(&refEpoch{blocks: maps.Clone(blocks), memPages: memPages})
	l.chain, l.addrs = append(l.chain, e), append(l.addrs, a)
	for len(l.chain) > l.maxDepth {
		oldest, oldestAddr := l.chain[0], l.addrs[0]
		l.chain, l.addrs = l.chain[1:], l.addrs[1:]
		base := l.store.exclusive(l.baseAddr)
		maps.Copy(base.blocks, oldest.blocks)
		base.memPages += oldest.memPages
		l.mergedBytes += oldest.bytes()
		l.store.release(oldestAddr, false)
		l.base, l.baseAddr = l.store.retain(base)
	}
}

func (l *refLineage) fork() *refLineage {
	nl := *l
	nl.chain, nl.addrs, nl.mergedBytes = slices.Clone(l.chain), slices.Clone(l.addrs), 0
	for _, a := range append([]Addr{l.baseAddr}, l.addrs...) {
		l.store.epochs[a].refs++
	}
	return &nl
}

func (l *refLineage) release() {
	for _, a := range append([]Addr{l.baseAddr}, l.addrs...) {
		l.store.release(a, true)
	}
}

func (l *refLineage) drop(isFree func(vba int64) bool) {
	if isFree == nil {
		return
	}
	drop := func(e *refEpoch, a Addr) (*refEpoch, Addr) {
		touched := false
		for vba := range e.blocks {
			touched = touched || isFree(vba)
		}
		if !touched {
			return e, a
		}
		e = l.store.exclusive(a)
		maps.DeleteFunc(e.blocks, func(vba, _ int64) bool { return isFree(vba) })
		return l.store.retain(e)
	}
	l.base, l.baseAddr = drop(l.base, l.baseAddr)
	for i := range l.chain {
		l.chain[i], l.addrs[i] = drop(l.chain[i], l.addrs[i])
	}
}

func (l *refLineage) materialize() map[int64]int64 {
	out := maps.Clone(l.base.blocks)
	for _, e := range l.chain {
		maps.Copy(out, e.blocks)
	}
	return out
}

func (l *refLineage) segments() []Segment {
	out := []Segment{{l.baseAddr, l.base.bytes()}}
	for i, e := range l.chain {
		out = append(out, Segment{l.addrs[i], e.bytes()})
	}
	return out
}

// oracleBranch pairs a volume and its lineage with their models.
type oracleBranch struct {
	v  *Volume
	l  *Lineage
	rv *refVolume
	rl *refLineage
}

// tailCoverage counts what an out-of-order driveOracle run did to the
// current delta's tail of out-of-order writes.
type tailCoverage struct {
	folds    int // appends that reached maxTail and folded the tail
	rewrites int // writes to a block the tail already held
	reads    int // locates checked while the tail was not empty
}

func tailLen(d *Delta) int { return len(d.tail) }

// aggOf is the aggregated delta holding run, laid out in VBA order.
func aggOf(run Run) Extents {
	x := Extents{run: run}
	x.index()
	return x
}

// driveOracle runs seeded steps on volumes and the model side by side
// and compares every observable after each step. Without chains the
// steps are writes and merges only; with them they add commits (with
// and without a retroactive drop), drops, forks and releases of
// branches whose lineages share one store, and prunes on every commit
// past a small depth bound. outOfOrder widens the block space and makes
// each write step a burst of scattered writes, long enough to fill the
// current delta's tail, with a locate checked after every write.
func driveOracle(t *testing.T, seed int64, steps int, chains, outOfOrder bool) tailCoverage {
	blocks := 96
	if outOfOrder {
		blocks = 1024
	}
	var cov tailCoverage
	rng := rand.New(rand.NewSource(seed))
	s := sim.New(seed)
	cs, rs := NewChainStore(), &refStore{epochs: map[Addr]*refEntry{}}
	depth := 1 + rng.Intn(3)
	branches := []*oracleBranch{{v: newTestVolume(s), l: cs.NewLineage(depth), rv: newRefVolume(), rl: rs.newLineage(depth)}}
	for step := 0; step < steps; step++ {
		var isFree func(int64) bool
		if rng.Intn(2) == 0 {
			free := make(map[int64]bool)
			for i := rng.Intn(8); i > 0; i-- {
				free[int64(rng.Intn(blocks))] = true
			}
			isFree = func(vba int64) bool { return free[vba] }
		}
		bi := rng.Intn(len(branches))
		br := branches[bi]
		op := rng.Intn(10)
		if chains {
			op = rng.Intn(20)
		}
		switch {
		case op < 7:
			writes := 1
			if outOfOrder {
				writes = 1 + rng.Intn(2*maxTail)
			}
			for range writes {
				first, n := int64(rng.Intn(blocks)), int64(1+rng.Intn(4))
				n = min(n, int64(blocks)-first)
				cur, tail := br.v.Cur, tailLen(br.v.Cur)
				if slices.ContainsFunc(cur.tail, func(e extent) bool { return e.VBA < first+n && first < e.end() }) {
					cov.rewrites++
				}
				br.v.Write(first*BlockSize, n*BlockSize, nil)
				br.rv.write(first, n)
				if tail > 0 && tailLen(cur) == 0 {
					cov.folds++
				}
				if !outOfOrder {
					continue
				}
				if tailLen(cur) > 0 {
					cov.reads++
				}
				vba := int64(rng.Intn(blocks))
				if g, w := br.v.locate(vba), br.rv.lba(vba); g != w {
					t.Fatalf("seed %d step %d: block %d reads from %d, reference %d", seed, step, vba, g, w)
				}
			}
			s.Run()
		case op < 10:
			if g, w := br.v.Merge(isFree), br.rv.merge(isFree); g != w {
				t.Fatalf("seed %d step %d: Merge = %d, reference %d", seed, step, g, w)
			}
		case op < 14:
			got, want := br.v.EpochBlocks(isFree), br.rv.view(br.rv.curIndex, isFree)
			if !slices.Equal(got, runOf(want)) {
				t.Fatalf("seed %d step %d: epoch blocks %v, reference %v", seed, step, got, want)
			}
			mem := rng.Intn(3)
			br.l.Commit(got, mem)
			br.rl.commit(want, mem)
			if rng.Intn(2) == 0 {
				br.l.Drop(isFree)
				br.rl.drop(isFree)
			}
			br.v.Merge(isFree)
			br.rv.merge(isFree)
		case op < 16:
			br.l.Drop(isFree)
			br.rl.drop(isFree)
		case op < 18:
			// A branch starts from its parent's checkpoint state: the
			// parent's merged volume and a fork of its lineage.
			br.v.Merge(nil)
			br.rv.merge(nil)
			nb := &oracleBranch{v: newTestVolume(s), l: br.l.Fork(), rv: newRefVolume(), rl: br.rl.fork()}
			nb.v.Agg, nb.v.merged = aggOf(br.v.Snapshot(nil)), br.v.merged
			nb.rv.content, nb.rv.writeSeq = maps.Clone(br.rv.content), br.rv.writeSeq
			nb.rv.aggIndex, nb.rv.aggOrder = maps.Clone(br.rv.aggIndex), slices.Clone(br.rv.aggOrder)
			branches = append(branches, nb)
		default:
			if len(branches) > 1 {
				br.l.Release()
				br.rl.release()
				branches = slices.Delete(branches, bi, bi+1)
			}
		}
		for _, b := range branches {
			if tailLen(b.v.Cur) > 0 {
				cov.reads++
			}
			compareBranch(t, seed, step, b, isFree, int64(blocks), chains)
		}
		if chains && (cs.Entries() != len(rs.epochs) || cs.GCBytes != rs.gcBytes ||
			cs.DedupBytes != rs.dedupBytes || cs.StoredBytes() != rs.bytes()) {
			t.Fatalf("seed %d step %d: store entries/gc/dedup/stored %d/%d/%d/%d, reference %d/%d/%d/%d",
				seed, step, cs.Entries(), cs.GCBytes, cs.DedupBytes, cs.StoredBytes(),
				len(rs.epochs), rs.gcBytes, rs.dedupBytes, rs.bytes())
		}
	}
	return cov
}

// compareBranch fails the test unless a branch and its model agree on
// every observable the swap pipeline, the read path and the store use.
func compareBranch(t *testing.T, seed int64, step int, b *oracleBranch, isFree func(int64) bool, blocks int64, chains bool) {
	t.Helper()
	v, r := b.v, b.rv
	if v.Agg.Blocks() != int64(len(r.aggOrder)) || v.Cur.Slots() != len(r.curOrder) {
		t.Fatalf("seed %d step %d: agg/cur slots %d/%d, reference %d/%d",
			seed, step, v.Agg.Blocks(), v.Cur.Slots(), len(r.aggOrder), len(r.curOrder))
	}
	// Reads first: the snapshot and epoch blocks below fold the tail.
	for vba := int64(0); vba < blocks; vba++ {
		if g, w := v.locate(vba), r.lba(vba); g != w {
			t.Fatalf("seed %d step %d: block %d reads from %d, reference %d", seed, step, vba, g, w)
		}
	}
	if got, want := v.Snapshot(isFree), runOf(r.view(r.content, isFree)); !slices.Equal(got, want) {
		t.Fatalf("seed %d step %d: snapshot %v, reference %v", seed, step, got, want)
	}
	if got, want := v.EpochBlocks(isFree), runOf(r.view(r.curIndex, isFree)); !slices.Equal(got, want) {
		t.Fatalf("seed %d step %d: epoch blocks %v, reference %v", seed, step, got, want)
	}
	if !chains {
		return
	}
	l, rl := b.l, b.rl
	if got, want := l.Materialize(), runOf(rl.materialize()); !slices.Equal(got, want) {
		t.Fatalf("seed %d step %d: materialized %v, reference %v", seed, step, got, want)
	}
	if got, want := l.Segments(), rl.segments(); !slices.Equal(got, want) {
		t.Fatalf("seed %d step %d: segments (addr, bytes) %v, reference %v", seed, step, got, want)
	}
	if l.Depth() != len(rl.chain) || l.ReplayBytes() != rl.base.bytes()+sumBytes(rl.chain) || l.MergedBytes != rl.mergedBytes {
		t.Fatalf("seed %d step %d: depth/replay/merged %d/%d/%d, reference %d/%d/%d", seed, step,
			l.Depth(), l.ReplayBytes(), l.MergedBytes, len(rl.chain), rl.base.bytes()+sumBytes(rl.chain), rl.mergedBytes)
	}
}

func sumBytes(es []*refEpoch) int64 {
	var n int64
	for _, e := range es {
		n += e.bytes()
	}
	return n
}

// TestMergeMatchesReference drives writes and merges, with and without
// free-block sets, and requires the volume to agree with the map-based
// model after each step: delta sizes, where every block reads from, the
// snapshot and the epoch blocks. Every merge lays the log out by VBA,
// so its one subtest is the reordering merge.
func TestMergeMatchesReference(t *testing.T) {
	t.Run("reorder", func(t *testing.T) {
		for seed := int64(1); seed <= 8; seed++ {
			driveOracle(t, seed, 200, false, false)
		}
	})
}

// TestRunsMatchMapReference adds the checkpoint chain to the oracle:
// commits, prunes, forks, drops and releases on several branches sharing
// one store must leave every lineage's replay view, content addresses,
// depth, replay and merged bytes, and the store's entry count, GC,
// dedup and stored bytes, equal to the map-based model's.
func TestRunsMatchMapReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		driveOracle(t, seed, 400, true, false)
	}
}

// TestDeltaTailMatchesReference drives the oracle with bursts of
// scattered writes over a wide block space, so the current delta's
// out-of-order tail fills past its bound, takes rewrites of blocks it
// already holds, and serves reads while it is not empty: the latest
// write to a block must win both in locate and after the tail is folded
// into the run.
func TestDeltaTailMatchesReference(t *testing.T) {
	var cov tailCoverage
	for seed := int64(1); seed <= 6; seed++ {
		c := driveOracle(t, seed, 60, true, true)
		cov.folds, cov.rewrites, cov.reads = cov.folds+c.folds, cov.rewrites+c.rewrites, cov.reads+c.reads
	}
	t.Logf("%d bound folds, %d tail rewrites, %d reads through a tail", cov.folds, cov.rewrites, cov.reads)
	if cov.folds == 0 || cov.rewrites == 0 || cov.reads == 0 {
		t.Fatalf("workload missed the tail: %+v", cov)
	}
}

// randomExtents builds a proper run over [0, width): blocks present
// with the given density, each tag following its predecessor's with
// probability 3/4, so the run mixes long extents, gaps and breaks.
func randomExtents(rng *rand.Rand, width int64, density float64) []extent {
	var run []extent
	tag := rng.Int63n(1000)
	for vba := range width {
		if rng.Float64() >= density {
			continue
		}
		tag++
		if rng.Intn(4) == 0 {
			tag += rng.Int63n(50)
		}
		run = appendExt(run, extent{VBA: vba, N: 1, Tag: tag})
	}
	return run
}

// checkMerge merges add into dst and reports an error unless the
// result holds exactly the newest-wins merge of their blocks by the map
// model, as a proper run (sorted, disjoint, no extent continuing its
// predecessor), at no allocation when dst has room for the splits.
func checkMerge(dst, add []extent) error {
	model := make(map[int64]int64)
	for _, run := range [][]extent{dst, add} {
		for _, b := range expand(run) {
			model[b.VBA] = b.Tag
		}
	}
	buf := make([]extent, 0, len(dst)+2*len(add))
	var got []extent
	allocs := testing.AllocsPerRun(1, func() {
		got = mergeExtents(append(buf[:0], dst...), add)
	})
	if allocs != 0 {
		return fmt.Errorf("%.0f allocations merging into a run with room", allocs)
	}
	if want := runOf(model); !slices.Equal(expand(got), expand(want)) {
		return fmt.Errorf("merged %v into %v: got %v, want %v", add, dst, got, want)
	}
	for i := 1; i < len(got); i++ {
		if got[i].VBA < got[i-1].end() || got[i].continues(got[i-1]) {
			return fmt.Errorf("merged %v into %v: run %v is not proper at %d", add, dst, got, i)
		}
	}
	return nil
}

// TestMergeExtentsMatchesBlocks merges random runs of extents and
// checks each merge against the map model.
func TestMergeExtentsMatchesBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		width := 1 + rng.Int63n(300)
		dst := randomExtents(rng, width, rng.Float64())
		add := randomExtents(rng, width, rng.Float64()*rng.Float64())
		if err := checkMerge(dst, add); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// fuzzRuns decodes fuzz input into two proper runs. Each four bytes
// append one extent: the first byte's low bit picks the run and its
// upper bits give the gap after the run's end, the second byte is N-1,
// and the last two are a signed step from where the run's tags end.
func fuzzRuns(data []byte) (runs [2][]extent) {
	var tags [2]int64
	for ; len(data) >= 4; data = data[4:] {
		r := data[0] & 1
		e := extent{VBA: int64(data[0] >> 1), N: int64(data[1]) + 1}
		if n := len(runs[r]); n > 0 {
			e.VBA += runs[r][n-1].end()
		}
		e.Tag = tags[r] + int64(int16(binary.LittleEndian.Uint16(data[2:])))
		tags[r] = e.Tag + e.N
		runs[r] = appendExt(runs[r], e)
	}
	return runs
}

// fuzzBytes encodes runs as fuzzRuns decodes them, for runs whose gaps
// are below 128, whose extents hold at most 256 blocks and whose tag
// steps fit an int16.
func fuzzBytes(runs ...[]extent) []byte {
	var out []byte
	for r, run := range runs {
		var end, tag int64
		for _, e := range run {
			out = append(out, byte(e.VBA-end)<<1|byte(r), byte(e.N-1))
			out = binary.LittleEndian.AppendUint16(out, uint16(e.Tag-tag))
			end, tag = e.end(), e.Tag+e.N
		}
	}
	return out
}

// FuzzMergeExtents decodes two proper runs and checks their merge
// against the map model, as TestMergeExtentsMatchesBlocks does for
// random runs; its seeds are such runs.
func FuzzMergeExtents(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		width := 1 + rng.Int63n(128)
		dst := randomExtents(rng, width, rng.Float64())
		add := randomExtents(rng, width, rng.Float64()*rng.Float64())
		seed := fuzzBytes(dst, add)
		if runs := fuzzRuns(seed); !slices.Equal(runs[0], dst) || !slices.Equal(runs[1], add) {
			f.Fatalf("seed decodes to %v, %v; encoded %v, %v", runs[0], runs[1], dst, add)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runs := fuzzRuns(data)
		if err := checkMerge(runs[0], runs[1]); err != nil {
			t.Fatal(err)
		}
	})
}
