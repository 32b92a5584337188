// Package swap implements stateful swapping (paper §5, §7.2): swapping
// an experiment out of the testbed without losing its run-time state,
// and swapping it back in with the entire period of inactivity concealed
// from the experiment.
//
// Swap-out pipeline (per node, overlapped with execution):
//  1. Eager pre-copy: the current disk delta (after free-block
//     elimination) streams to the file server under the rate limiter
//     while the guest keeps running.
//  2. A coordinated transparent checkpoint freezes the experiment and
//     streams memory images over the control network (HoldResume).
//  3. Blocks re-dirtied during pre-copy are flushed.
//  4. Offline, the server merges the current delta into the aggregated
//     delta, reordering to restore locality (§5.3).
//
// Swap-in pipeline:
//  1. Fetch the golden image unless cached (Frisbee-style, ~60 s flat).
//  2. Download memory images; node setup/boot plumbing is a constant.
//  3. Disk state arrives either eagerly (full aggregated delta before
//     resume — swap-in time grows with accumulated history) or lazily
//     (demand-paged plus rate-limited background fill — constant
//     swap-in time); this is §7.2's 150 s-vs-35 s comparison.
//
// The incremental modes (Options.Mode) move only deltas: swap-out
// uploads the blocks and memory pages dirtied since the experiment's
// last resident checkpoint and commits them to a per-node lineage
// (storage.Lineage); swap-in reconstructs state by replaying base +
// delta chain, with chains pruned/merged past a depth bound so replay
// cost stays flat; preemption cost is proportional to dirtied state.
// Every mode moves its bytes the same way, as bandwidth-shared streams
// through the one file-server pipe (xfer.Server): the mode decides how
// much state moves, never how it moves.
//
// Every swap-in and crash recovery runs one per-node restore plan
// (golden fetch, node setup, memory leg, one disk stage), and every
// disk delta a swap-out or epoch commit moves goes through one sink
// (Manager.sinkDelta) that picks its home: the file server, the
// node-local snapshot disk, or the shared pool.
package swap

import (
	"fmt"

	"emucheck/internal/core"
	"emucheck/internal/metrics"
	"emucheck/internal/node"
	"emucheck/internal/sim"
	"emucheck/internal/storage"
	"emucheck/internal/xen"
	"emucheck/internal/xfer"
)

// rawRegion is a byte-addressed window onto a disk region, used to land
// delta-image bytes in the COW log area without re-entering the COW
// translation layer.
type rawRegion struct {
	d    *node.Disk
	base int64
}

func (r rawRegion) Read(off, n int64, done func()) {
	r.d.Submit(&node.DiskRequest{Op: node.Read, LBA: r.base + off, Bytes: n, Done: done})
}

func (r rawRegion) Write(off, n int64, done func()) {
	r.d.Submit(&node.DiskRequest{Op: node.Write, LBA: r.base + off, Bytes: n, Done: done})
}

// GoldenFetchTime models Frisbee multicast disk imaging of the base
// image onto a node (§7.2: "an additional 60 seconds to download it").
const GoldenFetchTime = 60 * sim.Second

// NodeSetupTime is the fixed swap-in plumbing: allocation, VLANs, VM
// creation (§7.2: the initial swap-in took eight seconds).
const NodeSetupTime = 8 * sim.Second

// Node is one swappable experiment node.
type Node struct {
	Name string
	HV   *xen.Hypervisor
	Vol  *storage.Volume
	// IsFree is the free-block plugin hook (nil disables elimination).
	IsFree func(vba int64) bool

	// Server-side state accumulated across swap cycles.
	AggBytesOnServer int64
	MemImageBytes    int64
	GoldenCached     bool

	// Resident tracks which content-addressed chain segments are
	// already staged on the node's disk (by the branch fan-out's
	// multicast, or left there by the node's own earlier cycles — the
	// delta-image analogue of GoldenCached). A clone-aware restore
	// transfers only the segments missing from this set.
	Resident map[storage.Addr]bool
}

// MarkResident records the lineage's current chain segments as staged
// on the node's disk.
func (n *Node) MarkResident(lin *storage.Lineage) {
	if n.Resident == nil {
		n.Resident = make(map[storage.Addr]bool)
	}
	for _, seg := range lin.Segments() {
		n.Resident[seg.Addr] = true
	}
}

// OutReport describes one swap-out.
type OutReport struct {
	Started  sim.Time
	Finished sim.Time
	// PreCopyBytes streamed while the experiment was still running.
	PreCopyBytes int64
	// ResidualBytes were re-dirtied during pre-copy and flushed frozen.
	ResidualBytes int64
	// MemoryBytes is the memory image moved to the server: the full
	// resident set, or just the dirty delta in incremental mode.
	MemoryBytes int64
	MergedBytes int64
	Checkpoint  *core.Result
	// Incremental marks a dirty-delta swap-out committed to the lineage.
	Incremental bool
	// ChainDepth is the lineage chain length after this commit.
	ChainDepth int
}

// Duration reports the wall time of the swap-out.
func (r *OutReport) Duration() sim.Time { return r.Finished - r.Started }

// InReport describes one swap-in.
type InReport struct {
	Started  sim.Time
	Finished sim.Time // experiment running again
	Lazy     bool
	// GoldenFetched marks a cold golden-image download.
	GoldenFetched bool
	// DeltaBytes is the disk state staged for the node: the merged
	// aggregated delta, or the base + delta chain replay in incremental
	// mode.
	DeltaBytes  int64
	MemoryBytes int64
	// BackgroundDone is when lazy background fill completed (lazy only).
	BackgroundDone sim.Time
	// Incremental marks a lineage-replay swap-in.
	Incremental bool
	// ChainDepth is the number of chain epochs replayed over the base.
	ChainDepth int
	// CachedBytes is the replay state served off node-local media — the
	// delta cache plus the snapshot-disk tier — without re-streaming
	// over the control LAN (tiered storage only).
	CachedBytes int64
	// RemoteBytes is the replay state that had to stream from the
	// shared pool (tiered storage only).
	RemoteBytes int64
}

// Duration reports time until the experiment was running again.
func (r *InReport) Duration() sim.Time { return r.Finished - r.Started }

// Mode selects how much state a swap cycle moves. Every mode moves it
// through the same fair-share streams of the file-server pipe.
type Mode int

// Swap modes.
const (
	// Full is the paper's full-copy pipeline: the whole resident memory
	// image moves on every swap-out and the whole aggregated delta on
	// every swap-in, all of it to and from the file server.
	Full Mode = iota
	// Incremental moves only deltas: swap-out moves the state dirtied
	// since the last resident checkpoint (memory via the hypervisor's
	// incremental save, disk via the current-delta epoch) and commits it
	// to the per-node lineage; swap-in replays base + delta chain.
	Incremental
	// Branch is Incremental plus clone-aware restore — the mode of
	// branch tenants, whose chains share a checkpoint prefix with their
	// siblings: swap-in downloads only the chain segments not already
	// staged on the node (by a branch fan-out's multicast or the node's
	// own prior cycles), and swap cycles keep that resident set current.
	Branch
)

// Options tunes a swap cycle. The zero value is the paper's default:
// full copy, eager pre-copy on swap-out, lazy copy-in on swap-in, and
// background transfers rate-limited to xfer.DefaultRateLimit.
type Options struct {
	Mode Mode
	// NoPreCopy skips the eager pre-copy: the whole live delta moves
	// while the experiment is frozen.
	NoPreCopy bool
	// Eager stages the whole disk state before the experiment resumes
	// instead of demand-paging it with a background fill.
	Eager bool
}

// serverMergeRate models the offline server-side delta merge, in
// bytes/second.
const serverMergeRate = 45 << 20

// Manager orchestrates swap cycles for one experiment.
type Manager struct {
	S      *sim.Simulator
	Server *xfer.Server
	Coord  *core.Coordinator
	Nodes  []*Node

	// Tag attributes this experiment's control-LAN bytes on the shared
	// file server, so cross-experiment contention is accountable.
	Tag string

	// Chains, when set, is the facility-wide refcounted chain store new
	// lineages are created in, so branches forked from this experiment's
	// checkpoints share base and common deltas by reference (and
	// content-identical commits across tenants deduplicate). Unset, each
	// lineage gets a private store.
	Chains *storage.ChainStore

	// Stats, when set, accumulates delta/full byte counts per transfer
	// class ("out.mem_bytes", "out.delta_bytes", "in.mem_bytes",
	// "in.disk_bytes", "merged_bytes", "out.epoch_bytes") for reports
	// and assertions. Tiered storage adds chain-placement classes:
	// "storage.remote_bytes" (chain state crossing the control LAN to
	// or from the shared pool), "storage.local_bytes" (chain state
	// served or stored on node-local media), "storage.cache_hit_bytes"
	// (restores served off the delta cache), and "storage.spill_bytes"
	// (snapshot-disk overflow pushed to the pool).
	Stats *metrics.Counters

	// Tier, when set, is the physical tier committed checkpoint-chain
	// segments live on: the node-local snapshot disk (storage.DiskKind)
	// or the shared pool with per-request round trips
	// (storage.RemoteKind). Nil keeps chain state on the file server,
	// every transfer riding the shared pipe. Set it before the first
	// swap cycle.
	Tier *storage.Tier

	// Cache is the node-local delta cache fronting remotely-homed
	// chain segments: restores consult it first and only the misses
	// stream from the pool; commits and prefetches fill it. Nil
	// disables caching. Only meaningful with a Tier.
	Cache *storage.DeltaCache

	// SaveDeadline bounds the save phase of this experiment's swap-out
	// checkpoints and committed epochs: a member that cannot barrier in
	// time (crashed, or its notification was lost) aborts the epoch
	// instead of hanging it. Zero disables straggler detection.
	SaveDeadline sim.Time

	// OnCommit, if set, observes every completed epoch commit (swap-out
	// or CommitEpoch) once the state is durable on the file server —
	// the hook recovery benchmarks use to snapshot workload progress at
	// the restore point.
	OnCommit func()

	swappedOut bool

	// Cycle counts completed swap-outs.
	Cycle int

	// lastCommitAt is when the experiment's state last became durably
	// recoverable on the file server (a completed swap-out or epoch
	// commit); zero means never.
	lastCommitAt sim.Time

	// epochLoop drives the periodic committed-epoch pipeline.
	epochLoop *core.PeriodicCheckpointer

	// commitsInFlight counts CommitEpoch calls whose uploads have not
	// landed; a swap-out's freeze waits for them so a stale captured
	// epoch can never append after the park's newer one.
	commitsInFlight int

	// lineages holds each node's server-side checkpoint chain.
	lineages map[string]*storage.Lineage
	// lastSwapEpoch is the coordinator epoch of the last swap-out
	// checkpoint: an incremental memory save is only sound if no other
	// checkpoint consumed the dirty log since (otherwise the delta on
	// the server would miss pages saved to the scratch disk instead).
	lastSwapEpoch int
}

// NewManager builds a swap manager over the coordinator's members.
func NewManager(s *sim.Simulator, server *xfer.Server, coord *core.Coordinator, nodes []*Node) *Manager {
	return &Manager{
		S: s, Server: server, Coord: coord, Nodes: nodes,
		lineages: make(map[string]*storage.Lineage),
	}
}

// Lineage returns (creating on first use) the named node's checkpoint
// chain. A stand-alone manager (no cluster chain store) mirrors its
// private store straight onto the tier, so prune folds — which re-key
// the base — and GC reach the tier and the cache without cluster
// wiring.
func (m *Manager) Lineage(name string) *storage.Lineage {
	l, ok := m.lineages[name]
	if !ok {
		cs := m.Chains
		if cs == nil {
			cs = storage.NewChainStore()
			cs.Mirror(m.Tier, m.Cache)
		}
		l = cs.NewLineage(0)
		m.lineages[name] = l
	}
	return l
}

// AdoptLineage installs a pre-built chain as the named node's lineage —
// the branch fork path: the hosting cluster forks the parent node's
// lineage (sharing base + common deltas by reference) and hands the
// fork to the branch's manager, so the branch's own swap cycles append
// branch-private epochs.
func (m *Manager) AdoptLineage(name string, l *storage.Lineage) {
	m.lineages[name] = l
}

// Lineages returns the manager's live per-node chain index, keyed by
// node name; nodes that never committed are absent. Map iteration
// order is undefined — callers must only aggregate over it (sums,
// lookups), never derive ordered output, and must not mutate it.
func (m *Manager) Lineages() map[string]*storage.Lineage { return m.lineages }

// ReleaseLineages prunes every node's chain: refs drop, and deltas no
// branch can reach any more are garbage-collected by the store.
func (m *Manager) ReleaseLineages() {
	for _, n := range m.Nodes {
		if l, ok := m.lineages[n.Name]; ok {
			l.Release()
		}
	}
}

// stat accumulates into the optional counter set.
func (m *Manager) stat(name string, n int64) {
	if m.Stats != nil {
		m.Stats.Add(name, n)
	}
}

// join returns a callback that runs fn on its n-th call: the barrier
// every multi-leg stage ends in.
func join(n int, fn func()) func() {
	return func() {
		n--
		if n == 0 {
			fn()
		}
	}
}

// sinkDelta is the one place that decides where a disk delta goes: it
// sends disk bytes of delta, with mem bytes of memory delta riding
// along, and calls done once both have landed.
//
// On the snapshot-disk tier the delta is a local put — seek plus
// bandwidth on the node's own medium, off the control LAN — and the
// memory bytes stream to the server alongside (memory images are always
// server-homed, so a restore can rebuild the resident image without
// the dead node's media). Everywhere else disk and memory bytes leave
// as one fair-share upload: to the file server without a tier, or to
// the shared pool, billed as remote. An epoch commit (commit set)
// checks the snapshot disk's room upfront — a full disk bills the
// upload as spill — and on the pool tier pays the pool's put round
// trip; pre-copy and residual flushes do neither. sinkDelta reports
// whether the delta went to the pool.
func (m *Manager) sinkDelta(disk, mem int64, commit bool, done func()) (pooled bool) {
	onDisk := m.Tier != nil && m.Tier.Kind == storage.DiskKind
	if onDisk && (!commit || m.Tier.Fits(disk)) {
		m.stat("storage.local_bytes", disk)
		if !commit {
			m.S.DoAfter(m.Tier.Cost(disk), "swap.local-put", done)
			return false
		}
		leg := join(2, done)
		m.S.DoAfter(m.Tier.Cost(disk), "swap.local-put", leg)
		if mem > 0 {
			m.Server.StreamUpload(m.Tag, mem, leg)
		} else {
			m.S.DoAfter(0, "swap.commit0", leg)
		}
		return false
	}
	switch {
	case onDisk:
		m.stat("storage.spill_bytes", disk)
		m.stat("storage.remote_bytes", disk)
	case m.Tier != nil:
		m.stat("storage.remote_bytes", disk)
		if commit {
			landed := done
			done = func() { m.S.DoAfter(m.Tier.Cost(disk), "swap.epoch-rtt", landed) }
		}
	}
	m.Server.StreamUpload(m.Tag, disk+mem, done)
	return m.Tier != nil
}

// spill pushes snapshot-disk overflow — epochs the disk refused — to
// the shared pool.
func (m *Manager) spill(n int64, done func()) {
	m.stat("storage.spill_bytes", n)
	m.stat("storage.remote_bytes", n)
	m.Server.StreamUpload(m.Tag, n, done)
}

// placeEpoch records a lineage's newest committed epoch on the tier and
// fills the delta cache for remotely-homed content. It returns the
// bytes that must spill to the shared pool because the snapshot disk is
// over its capacity budget.
func (m *Manager) placeEpoch(lin *storage.Lineage) int64 {
	segs := lin.Segments()
	seg := segs[len(segs)-1]
	if seg.Bytes <= 0 {
		return 0
	}
	// A mirrored chain store offered the segment to the tier when it
	// entered the store; a refused (or unmirrored) segment is offered
	// again here, as releases may have freed room since.
	onTier := m.Tier.Has(seg.Addr) || m.Tier.Put(seg.Addr, seg.Bytes)
	if m.Cache != nil && (!onTier || m.Tier.Kind == storage.RemoteKind) {
		// Remotely homed (pool tier, or snapshot-disk overflow): the
		// freshest epoch is the hottest restore content — cache it.
		m.Cache.Put(seg.Addr, seg.Bytes)
	}
	if onTier {
		return 0
	}
	return seg.Bytes
}

// SwappedOut reports whether the experiment is currently swapped out.
func (m *Manager) SwappedOut() bool { return m.swappedOut }

// anyCrashed reports whether any node has fail-stopped — commit and
// swap-out completions consult it so state destroyed by a crash is
// never marked durable.
func (m *Manager) anyCrashed() bool {
	for _, n := range m.Nodes {
		if n.HV.Crashed() {
			return true
		}
	}
	return false
}

// LastCommitAt reports when the experiment's state last became durably
// recoverable on the file server (zero: never). The gap between a crash
// and this instant is the work a recovery loses.
func (m *Manager) LastCommitAt() sim.Time { return m.lastCommitAt }

// committed marks a restore point durable on the file server.
func (m *Manager) committed() {
	m.lastCommitAt = m.S.Now()
	if m.OnCommit != nil {
		m.OnCommit()
	}
}

// SwapOut swaps the experiment out; done receives one report per node,
// or the error that aborted the swap-out (an epoch failure mid-freeze:
// the experiment was thawed and keeps running; nothing was released).
func (m *Manager) SwapOut(o Options, done func([]*OutReport, error)) error {
	if m.swappedOut {
		return fmt.Errorf("swap: already swapped out")
	}
	start := m.S.Now()
	reports := make([]*OutReport, len(m.Nodes))
	cuts := make([]int, len(m.Nodes))
	for i, n := range m.Nodes {
		reports[i] = &OutReport{Started: start, Incremental: o.Mode != Full}
		cuts[i] = n.Vol.Cur.Slots()
	}
	// An incremental memory save needs a base on the server (one prior
	// swap-out) and an unbroken dirty log: an intermediate checkpoint to
	// the scratch disk consumed pages the server never saw, so fall back
	// to a full save when the coordinator epoch moved underneath us.
	incrMem := o.Mode != Full && m.Cycle > 0 && m.Coord.Epoch() == m.lastSwapEpoch

	var ckpt func()
	ckpt = func() {
		if m.Coord.Held() {
			// A HoldResume checkpoint parked the experiment and only an
			// explicit ResumeHeld will clear it — waiting would spin
			// forever.
			done(nil, fmt.Errorf("swap: cannot swap out: a held checkpoint awaits ResumeHeld"))
			return
		}
		if m.Coord.Busy() || m.commitsInFlight > 0 {
			// A periodic (or scripted) checkpoint — or an epoch commit
			// still uploading — is mid-flight; the swap-out's freeze
			// queues behind it rather than failing: the preempting
			// scheduler must not crash a checkpointing tenant, and the
			// park's lineage epoch must append after (never interleave
			// with) an in-flight commit's.
			m.S.DoAfter(500*sim.Millisecond, "swap.ckpt-wait", ckpt)
			return
		}
		err := m.Coord.Checkpoint(core.Options{
			Target:       xen.ToControlNet,
			HoldResume:   true,
			Incremental:  incrMem,
			SaveDeadline: m.SaveDeadline,
		}, func(res *core.Result, cerr error) {
			if cerr != nil {
				// The freeze epoch aborted (a member failed or straggled):
				// the coordinator thawed whatever froze, so the experiment
				// keeps running and the park reports failure upward.
				done(nil, cerr)
				return
			}
			m.afterFreeze(o, res, reports, cuts, done)
		})
		if err != nil {
			done(nil, fmt.Errorf("swap: %v", err))
		}
	}

	if o.NoPreCopy {
		ckpt()
		return nil
	}
	// Eager pre-copy of every node's live current delta, in parallel:
	// each node's delta is one bandwidth-shared stream, so one node's
	// delta never queues behind another's.
	copied := join(len(m.Nodes), ckpt)
	for i, n := range m.Nodes {
		m.streamOut(n.Vol.Disk, n.Vol.CurrentDeltaBytes(n.IsFree), o.Mode == Full, func(moved int64) {
			reports[i].PreCopyBytes = moved
			copied()
		})
	}
	return nil
}

// streamOut reads a delta image off the node's disk and sends it to its
// home concurrently; done fires with the bytes moved when both the
// spindle and the sink are finished. The disk side reads in chunks paced
// at the rate limit — pre-copy runs while the guest is live, and a
// monolithic read would head-of-line block every foreground I/O behind
// the whole delta; the network side is one stream, since fair sharing is
// the pipe's job. A full-copy delta goes to the file server; an
// incremental one wherever sinkDelta sends it.
func (m *Manager) streamOut(disk *node.Disk, bytes int64, full bool, done func(moved int64)) {
	if bytes <= 0 {
		m.S.DoAfter(0, "swap.stream0", func() { done(0) })
		return
	}
	fin := join(2, func() { done(bytes) })
	xfer.PaceDisk(m.S, disk, node.Read, storage.CurBase, bytes, xfer.DefaultRateLimit, fin)
	if full {
		m.Server.StreamUpload(m.Tag, bytes, fin)
	} else {
		m.sinkDelta(bytes, 0, false, fin)
	}
}

// afterFreeze flushes residual deltas and memory accounting, commits
// the epoch to each node's lineage (incremental modes), then releases
// the hardware.
func (m *Manager) afterFreeze(o Options, res *core.Result, reports []*OutReport, cuts []int, done func([]*OutReport, error)) {
	m.lastSwapEpoch = m.Coord.Epoch()
	parked := join(len(m.Nodes), func() {
		if m.anyCrashed() {
			// The machines died while the residual flush or merge was
			// draining: the swap-out never completed and its epoch is
			// not a restore point. The crash path owns the cleanup.
			return
		}
		m.swappedOut = true
		m.Cycle++
		// Either mode leaves a complete restore point on the server:
		// the lineage chain (incremental) or the full image +
		// aggregated delta (full copy).
		m.committed()
		done(reports, nil)
	})
	for i, n := range m.Nodes {
		rep := reports[i]
		rep.Checkpoint = res
		for _, img := range res.Images {
			if img.Node == n.Name {
				rep.MemoryBytes = img.MemoryBytes + img.DeviceBytes
				if o.Mode != Full {
					// The server applies the delta to its base offline;
					// swap-in must still restore the full resident image.
					n.MemImageBytes = n.HV.K.MemoryImageBytes() + img.DeviceBytes
				} else {
					n.MemImageBytes = img.MemoryBytes + img.DeviceBytes
				}
			}
		}
		m.stat("out.mem_bytes", rep.MemoryBytes)
		// The hypervisor streamed the image over the control net itself
		// (its timing is inside the checkpoint); the server still logs
		// the bytes so per-experiment totals are truthful.
		m.Server.AccountUpload(m.Tag, rep.MemoryBytes)
		if o.NoPreCopy {
			// Without pre-copy the whole live delta moves while frozen.
			rep.ResidualBytes = n.Vol.CurrentDeltaBytes(n.IsFree)
		} else {
			// Blocks appended to the redo log after the pre-copy cut are
			// residual: blocks written (or re-written) during pre-copy.
			rep.ResidualBytes = int64(n.Vol.Cur.Slots()-cuts[i]) * storage.BlockSize
		}
		m.stat("out.delta_bytes", rep.PreCopyBytes+rep.ResidualBytes)
		afterFlush := func() {
			// The node's part of the swap-out ends here; the delta merge
			// is offline server-side post-processing (§5.3) and does not
			// extend the user-visible swap-out.
			rep.Finished = m.S.Now()
			var serverWork, spillBytes int64
			if o.Mode != Full {
				// Commit the dirty epoch to the lineage before the local
				// merge folds it into the aggregated delta; server-side
				// work is whatever pruning folded into the base. Free-block
				// elimination applies retroactively to the whole chain, so
				// replay never resurrects blocks the filesystem has freed
				// since they were committed.
				lin := m.Lineage(n.Name)
				pruned := lin.MergedBytes
				lin.Commit(n.Vol.EpochBlocks(n.IsFree),
					int(rep.MemoryBytes/int64(n.HV.P.PageSize)))
				lin.Drop(n.IsFree)
				rep.ChainDepth = lin.Depth()
				serverWork = lin.MergedBytes - pruned
				if m.Tier != nil {
					// Record the epoch on its tier; snapshot-disk overflow
					// spills to the pool during the offline window below.
					spillBytes = m.placeEpoch(lin)
				}
				if o.Mode == Branch {
					// The node's disk holds exactly the state the chain now
					// replays to; record it so the next restore here (or a
					// co-staged sibling's) skips the resident segments.
					n.MarkResident(lin)
				}
			}
			n.HV.K.Dirty.CutEpoch()
			merged := n.Vol.Merge(n.IsFree)
			n.AggBytesOnServer = merged
			rep.MergedBytes = merged
			if o.Mode == Full {
				serverWork = merged
			}
			m.stat("merged_bytes", serverWork)
			mergeDur := sim.Time(float64(serverWork) / float64(serverMergeRate) * float64(sim.Second))
			// The offline window covers the server-side merge and, when
			// the snapshot disk overflowed, pushing the spilled epoch to
			// the shared pool; both must drain before the park counts.
			if spillBytes <= 0 {
				m.S.DoAfter(mergeDur, "swap.merge", parked)
				return
			}
			offline := join(2, parked)
			m.S.DoAfter(mergeDur, "swap.merge", offline)
			m.spill(spillBytes, offline)
		}
		if o.Mode == Full {
			m.Server.StreamUpload(m.Tag, rep.ResidualBytes, afterFlush)
		} else {
			m.sinkDelta(rep.ResidualBytes, 0, false, afterFlush)
		}
	}
}

// diskStage is how a restore stages a node's disk state.
type diskStage int

// Disk stages.
const (
	// stageLazy resumes at once: the staged image is demand-paged and
	// back-filled at the rate limit (§5.1).
	stageLazy diskStage = iota
	// stageEager lands the whole disk state with a rate-limited copy
	// before the node may resume.
	stageEager
	// stageStream downloads the disk state as one fair-share stream.
	stageStream
	// stageTiered waits for the pool prefetch, then pays the node-local
	// media time (cache and snapshot-disk reads).
	stageTiered
)

// restorePlan is one node's restore, shared by SwapIn and Recover:
// golden fetch, node setup, the memory leg, then exactly one disk stage.
type restorePlan struct {
	n   *Node
	rep *InReport
	// mem is the memory image to download.
	mem int64
	// disk is the disk state to stage; stage says how.
	disk  int64
	stage diskStage
	// countOnLanding accounts the disk bytes once staged (recovery)
	// rather than when staging starts (swap-in).
	countOnLanding bool
	// markResident records the chain as staged on the node once staging
	// starts (Branch mode).
	markResident bool

	// The tiered stage's plan: cost is the node-local medium time
	// (cache reads, disk reads, pool round trips) paid on top of the
	// streaming, misses the segments prefetched from the pool.
	cost    sim.Time
	misses  []storage.Segment
	fetched bool
	waiters []func()
}

// planTiered partitions one lineage's replay chain across the storage
// tiers — segments already resident on the node are skipped (resident
// nil disables the filter), cache hits and snapshot-disk segments serve
// locally, and only the remainder streams from the shared pool — and
// starts prefetching the pool misses now, overlapped with the golden
// fetch, node setup and the memory download. The cache's hit/miss
// ledger is charged as it goes.
func (m *Manager) planTiered(p *restorePlan, lin *storage.Lineage, resident map[storage.Addr]bool) {
	var total, cached, local, remote int64
	for _, seg := range lin.Segments() {
		if seg.Bytes <= 0 || resident[seg.Addr] {
			continue
		}
		total += seg.Bytes
		if m.Cache != nil {
			if _, ok := m.Cache.Get(seg.Addr); ok {
				cached += seg.Bytes
				p.cost += m.Cache.ReadCost(seg.Bytes)
				continue
			}
			m.Cache.MissBytes(seg.Bytes)
		}
		if m.Tier.Kind == storage.DiskKind {
			if m.Tier.Has(seg.Addr) {
				local += seg.Bytes
				p.cost += m.Tier.Cost(seg.Bytes)
				continue
			}
		} else {
			// The pool's per-request round trip.
			p.cost += m.Tier.Cost(seg.Bytes)
		}
		// Remotely homed (spilled snapshot-disk overflow included): the
		// pool streams it over the shared pipe.
		remote += seg.Bytes
		p.misses = append(p.misses, seg)
	}
	p.disk, p.stage = total, stageTiered
	p.rep.CachedBytes = cached + local
	p.rep.RemoteBytes = remote
	m.stat("storage.remote_bytes", remote)
	m.stat("storage.cache_hit_bytes", cached)
	m.stat("storage.local_bytes", local)
	// The misses move as one stream and fill the delta cache as they
	// land; the staging leg waits on it.
	m.Server.StreamDownload(m.Tag, remote, func() {
		if m.Cache != nil {
			for _, seg := range p.misses {
				m.Cache.Put(seg.Addr, seg.Bytes)
			}
		}
		p.fetched = true
		ws := p.waiters
		p.waiters = nil
		for _, w := range ws {
			w()
		}
	})
}

// restore runs one restore plan per node — each built and started in
// node order, so prefetches and first legs schedule exactly as the
// nodes come — and calls finish with the reports once every node is
// staged.
func (m *Manager) restore(plan func(*Node) *restorePlan, finish func([]*InReport)) {
	start := m.S.Now()
	reports := make([]*InReport, len(m.Nodes))
	staged := join(len(m.Nodes), func() { finish(reports) })
	for i, n := range m.Nodes {
		p := plan(n)
		p.rep.Started = start
		reports[i] = p.rep
		m.stage(p, staged)
	}
}

// stage runs one node's plan: golden fetch unless cached, node setup,
// the memory leg, then the disk stage.
func (m *Manager) stage(p *restorePlan, staged func()) {
	n, rep := p.n, p.rep
	account := func() {
		rep.DeltaBytes = p.disk
		m.stat("in.disk_bytes", p.disk)
	}
	memDone := func() {
		rep.MemoryBytes = p.mem
		m.stat("in.mem_bytes", p.mem)
		landed := staged
		if p.countOnLanding {
			landed = func() { account(); staged() }
		} else {
			account()
		}
		if p.markResident {
			// Once staging is under way the chain's segments are bound
			// for the node's disk; record them so the next cycle here
			// moves only fresh divergence.
			n.MarkResident(m.Lineage(n.Name))
		}
		m.stageDisk(p, landed)
	}
	setup := func() {
		m.S.DoAfter(NodeSetupTime, "swap.setup", func() {
			m.Server.StreamDownload(m.Tag, p.mem, memDone)
		})
	}
	if n.GoldenCached {
		setup()
		return
	}
	rep.GoldenFetched = true
	m.S.DoAfter(GoldenFetchTime, "swap.frisbee", func() {
		n.GoldenCached = true
		setup()
	})
}

// stageDisk stages the plan's disk state and calls done once the node
// may resume.
func (m *Manager) stageDisk(p *restorePlan, done func()) {
	switch p.stage {
	case stageTiered:
		// No lazy mirror: prefetch overlap is what keeps the restore off
		// the critical path.
		wait := func() { m.S.DoAfter(p.cost, "swap.stage-local", done) }
		if p.fetched {
			wait()
		} else {
			p.waiters = append(p.waiters, wait)
		}
	case stageStream:
		if p.disk <= 0 {
			done()
			return
		}
		m.Server.StreamDownload(m.Tag, p.disk, done)
	case stageEager:
		m.Server.Copy(m.Tag, p.n.Vol.Disk, node.Write, storage.AggBase, p.disk, xfer.DefaultRateLimit, done)
	default:
		// The staged disk image is demand-paged and back-filled into the
		// COW log region (raw addressing — the delta is an image file,
		// not guest-visible block space).
		lm := xfer.NewLazyMirror(m.S, rawRegion{d: p.n.Vol.Disk, base: storage.AggBase},
			m.Server, p.disk)
		lm.SetTag(m.Tag)
		lm.StartBackground(func() { p.rep.BackgroundDone = m.S.Now() })
		done()
	}
}

// resumed closes a restore: every report ends now and the experiment
// is back on hardware.
func (m *Manager) resumed(reports []*InReport) {
	now := m.S.Now()
	for _, r := range reports {
		r.Finished = now
	}
	m.swappedOut = false
}

// SwapIn restores the experiment; done receives one report per node
// once every guest is running (lazy background fill may continue), or
// the error that stopped the restore.
func (m *Manager) SwapIn(o Options, done func([]*InReport, error)) error {
	if !m.swappedOut {
		return fmt.Errorf("swap: not swapped out")
	}
	m.restore(func(n *Node) *restorePlan {
		// The disk state to stage: the merged aggregated delta, or the
		// lineage's base + delta chain replay in the incremental modes.
		p := &restorePlan{
			n:    n,
			rep:  &InReport{Lazy: !o.Eager, Incremental: o.Mode != Full},
			mem:  n.MemImageBytes,
			disk: n.AggBytesOnServer,
		}
		if o.Eager {
			p.stage = stageEager
		}
		if o.Mode == Full {
			return p
		}
		lin := m.Lineage(n.Name)
		p.rep.ChainDepth = lin.Depth()
		// A clone-aware restore narrows the replay to the chain
		// segments not already resident on the node.
		var resident map[storage.Addr]bool
		if o.Mode == Branch {
			resident = n.Resident
			p.markResident = true
		}
		p.disk = lin.MissingBytes(resident)
		if m.Tier != nil {
			m.planTiered(p, lin, resident)
		}
		return p
	}, func(reports []*InReport) {
		// All state staged: resume the experiment together.
		err := m.Coord.ResumeHeld(func(_ *core.Result, rerr error) {
			if rerr != nil {
				done(nil, rerr)
				return
			}
			m.resumed(reports)
			done(reports, nil)
		})
		if err != nil {
			done(nil, fmt.Errorf("swap: %v", err))
		}
	})
	return nil
}

// CommitEpoch durably commits the experiment's live state to its
// per-node lineages without parking it: each node's disk epoch (the
// blocks dirtied since the last commit) and dirty memory pages stream
// to the file server as bandwidth-shared uploads and append to the
// chain. This is the durable half of an incremental swap-out — the
// periodic epoch pipeline uses it to keep crash recovery's restore
// point fresh. done, if non-nil, receives the bytes moved once every
// node's commit is on the server.
func (m *Manager) CommitEpoch(done func(moved int64)) {
	if m.swappedOut {
		// Parked: the guests are frozen off-hardware and the park's own
		// epoch already committed everything.
		return
	}
	m.commitsInFlight++
	// Durability ordering: the local epoch closes now (dirty logs cut,
	// volume deltas merged), but the server-side lineages only append —
	// and the commit only counts as a restore point — once every node's
	// upload has landed, all-or-nothing. A crash mid-upload therefore
	// discards the whole epoch: no lineage claims state the server
	// never fully received, and lastCommitAt never moves past the
	// crash.
	type pendingCommit struct {
		n        *Node
		lin      *storage.Lineage
		blocks   storage.Run
		memPages int
		// pooled marks an epoch whose bytes already crossed to the pool
		// in the transfer stage (remote tier, or a snapshot disk known
		// full upfront) — its placement must not bill a second spill.
		pooled bool
	}
	var pend []pendingCommit
	var total int64
	fin := join(len(m.Nodes), func() {
		m.commitsInFlight--
		if m.anyCrashed() {
			// The machines died while the commit was in flight: the
			// epoch never became durable. Recovery restores the
			// previous one.
			return
		}
		var spill int64
		for _, p := range pend {
			p.lin.Commit(p.blocks, p.memPages)
			p.lin.Drop(p.n.IsFree)
			p.n.MarkResident(p.lin)
			if m.Tier != nil {
				sp := m.placeEpoch(p.lin)
				if !p.pooled {
					spill += sp
				}
			}
		}
		complete := func() {
			m.committed()
			if done != nil {
				done(total)
			}
		}
		if spill > 0 {
			// Snapshot-disk overflow: the epoch only counts as a restore
			// point once its spilled bytes are safe on the pool.
			m.spill(spill, complete)
			return
		}
		complete()
	})
	for _, n := range m.Nodes {
		lin := m.Lineage(n.Name)
		blocks := n.Vol.EpochBlocks(n.IsFree)
		memPages := n.HV.K.Dirty.EpochDirty()
		if blocks.Blocks() == 0 && memPages == 0 && lin.Epochs() > 0 {
			// Nothing dirtied since the last commit; the chain already
			// replays to the current state.
			m.S.DoAfter(0, "swap.commit0", fin)
			continue
		}
		n.HV.K.Dirty.CutEpoch()
		n.Vol.Merge(n.IsFree)
		pc := pendingCommit{n: n, lin: lin, blocks: blocks, memPages: memPages}
		diskB := blocks.Blocks() * storage.BlockSize
		memB := int64(memPages) * int64(n.HV.P.PageSize)
		total += diskB + memB
		m.stat("out.epoch_bytes", diskB+memB)
		if diskB+memB <= 0 {
			m.S.DoAfter(0, "swap.commit0", fin)
		} else {
			pc.pooled = m.sinkDelta(diskB, memB, true, fin)
		}
		pend = append(pend, pc)
	}
}

// StartEpochs begins the periodic committed-epoch pipeline: a
// transparent scratch-disk checkpoint of the whole experiment every
// interval, with each fully-barriered epoch's dirty state committed to
// the file-server lineages in the background. Aborted epochs commit
// nothing — the loop retries at the next interval with a fresh epoch
// number — so the restore point Recover uses is always a consistent,
// fully-barriered epoch at most ~interval stale.
func (m *Manager) StartEpochs(interval sim.Time) *core.PeriodicCheckpointer {
	m.StopEpochs()
	m.epochLoop = &core.PeriodicCheckpointer{
		C:        m.Coord,
		Interval: interval,
		Opts:     core.Options{Incremental: true, SaveDeadline: m.SaveDeadline},
		OnResult: func(*core.Result) {
			// The epoch's memory delta reaches the server with this
			// commit, so the next swap-out's incremental memory save
			// stays sound despite the intervening checkpoint.
			ep := m.Coord.Epoch()
			m.CommitEpoch(func(int64) { m.lastSwapEpoch = ep })
		},
	}
	m.epochLoop.Start(0)
	return m.epochLoop
}

// StopEpochs halts the committed-epoch pipeline, if running.
func (m *Manager) StopEpochs() {
	if m.epochLoop != nil {
		m.epochLoop.Stop()
		m.epochLoop = nil
	}
}

// Recover restores a crashed experiment from its last committed epoch:
// on freshly re-acquired hardware, each node's full memory image and
// its disk chain replay stream down from the file server as
// bandwidth-shared streams, then every node restarts together. Unlike
// SwapIn it does not require a preceding swap-out — the restore point
// is whatever the epoch pipeline (or an earlier park) last committed —
// and the guests resume from that epoch rather than via a held
// epoch's coordinated resume (the crashed epoch never barriered).
func (m *Manager) Recover(done func([]*InReport, error)) error {
	if m.lastCommitAt == 0 {
		return fmt.Errorf("swap: no committed epoch to recover from")
	}
	// A crashed-while-parked (or mid-park, post-freeze) tenant left a
	// held epoch on the coordinator. The recovery resumes the guests
	// from restored images, not through ResumeHeld, so the held slot
	// must clear here — otherwise the coordinator reports Busy forever
	// and the recovered tenant could never checkpoint or park again.
	m.Coord.DropHeld()
	m.restore(func(n *Node) *restorePlan {
		lin := m.Lineage(n.Name)
		p := &restorePlan{
			n:              n,
			rep:            &InReport{Incremental: lin.Epochs() > 0, ChainDepth: lin.Depth()},
			mem:            n.HV.K.MemoryImageBytes(),
			disk:           lin.ReplayBytes(),
			stage:          stageStream,
			countOnLanding: true,
		}
		switch {
		case lin.Epochs() == 0:
			// No incremental chain: the restore point is the full-copy
			// swap-out image (memory image + aggregated delta).
			p.disk = n.AggBytesOnServer
		case m.Tier != nil:
			// Chain segments on node-local media (the snapshot disk
			// survives a fail-stop; the cache was filled by the epoch
			// pipeline's commits) restore without the pool, and the
			// misses prefetch in parallel with re-provisioning.
			m.planTiered(p, lin, nil)
		}
		return p
	}, func(reports []*InReport) {
		// All state staged: restart every node from the restored images.
		for _, n := range m.Nodes {
			if n.HV.Crashed() {
				if err := n.HV.Restore(nil); err != nil {
					done(nil, err)
					return
				}
			} else if n.HV.K.Suspended() {
				_ = n.HV.Resume(nil)
			}
		}
		m.resumed(reports)
		done(reports, nil)
	})
	return nil
}
