// Package xfer implements the background block-transfer machinery of
// stateful swapping (paper §5.1, §5.3): one fair-share model of the
// file-server pipe, a rate-limited disk⇄server copy for eager pre-copy
// on swap-out and eager staging on swap-in, and a lazy demand-paged
// mirror for swap-in.
//
// The paper's key refinement is the rate-limiting function added to LVM
// mirror synchronization: unthrottled background copying visibly
// perturbs the guest's disk throughput (Fig. 9), so synchronization is
// slowed relative to normal system I/O.
package xfer

import (
	"emucheck/internal/node"
	"emucheck/internal/sim"
)

// Server models the Emulab file server reached over the control
// network: one pipe of Rate bytes/second — the 100 Mbps control LAN the
// paper calls out as the bottleneck in §7.2 — shared fairly
// (processor-sharing) by every transfer in flight. Concurrent per-node
// uploads and downloads overlap rather than serialize, so a small
// transfer is never stuck behind a neighbor's full image; the pipe is
// work-conserving, so a batch admitted together drains at Σn/Rate.
type Server struct {
	s *sim.Simulator
	// Rate is the shared pipe's bandwidth in bytes/second.
	Rate int64

	// Received and Served count bytes moved node->server and
	// server->node respectively, for reports.
	Received uint64
	Served   uint64

	// Processor-sharing state: every active stream gets an equal share
	// of Rate; membership changes resettle the remaining bytes, and one
	// reused timer arms the next completion.
	streams []stream
	timer   *sim.Timer
	last    sim.Time

	// MulticastSavedBytes accumulates the extra bytes unicast staging
	// would have moved: for every Multicast of n bytes to k receivers,
	// (k-1)*n bytes never crossed the control LAN.
	MulticastSavedBytes int64
	// ByTag attributes bytes moved (both directions) per experiment.
	ByTag map[string]int64
}

// NewServer creates a file server; rate defaults to 100 Mbps worth of
// bytes if zero.
func NewServer(s *sim.Simulator, rate int64) *Server {
	if rate <= 0 {
		rate = 100_000_000 / 8
	}
	sv := &Server{s: s, Rate: rate, ByTag: make(map[string]int64)}
	sv.timer = s.NewTimer("xfer.stream", func() {
		sv.settle()
		sv.reschedule()
	})
	return sv
}

// account charges n bytes moved node->server (up) or server->node to
// the ledgers.
func (sv *Server) account(tag string, n int64, up bool) {
	if up {
		sv.Received += uint64(n)
	} else {
		sv.Served += uint64(n)
	}
	if tag != "" {
		sv.ByTag[tag] += n
	}
}

// AccountUpload charges n node->server bytes to the accounting ledgers
// (Received, ByTag) without occupying the pipe — for transfers whose
// timing is modeled elsewhere, like the checkpoint images the
// hypervisor itself streams over the control network during a swap-out.
func (sv *Server) AccountUpload(tag string, n int64) {
	if n > 0 {
		sv.account(tag, n, true)
	}
}

// stream is one processor-sharing transfer in flight.
type stream struct {
	remaining float64 // bytes still to move
	done      func()
}

// StreamUpload moves n bytes node->server through the shared pipe,
// attributed to the experiment tag; done fires once they have drained.
func (sv *Server) StreamUpload(tag string, n int64, done func()) { sv.stream(tag, n, true, done) }

// StreamDownload moves n bytes server->node through the shared pipe.
func (sv *Server) StreamDownload(tag string, n int64, done func()) { sv.stream(tag, n, false, done) }

// Multicast moves n bytes server->nodes once for all receivers —
// Frisbee-style multicast imaging over the control LAN (the same
// mechanism §7.2's golden-image distribution uses): the shared pipe
// carries the bytes a single time no matter how many nodes join the
// session, so staging one checkpoint prefix to a branch fan-out costs
// what staging it to one node costs. The transfer shares the pipe
// fairly with concurrent streams; done fires when the bytes have
// drained (every receiver has them).
func (sv *Server) Multicast(tag string, n int64, receivers int, done func()) {
	if receivers > 1 && n > 0 {
		sv.MulticastSavedBytes += int64(receivers-1) * n
	}
	sv.stream(tag, n, false, done)
}

func (sv *Server) stream(tag string, n int64, up bool, done func()) {
	if n <= 0 {
		sv.s.DoAfter(0, "xfer.zero", done)
		return
	}
	sv.account(tag, n, up)
	sv.settle()
	sv.streams = append(sv.streams, stream{remaining: float64(n), done: done})
	sv.reschedule()
}

// settle charges elapsed time against every active stream at the
// current per-stream share.
func (sv *Server) settle() {
	now := sv.s.Now()
	if len(sv.streams) > 0 {
		drained := (now - sv.last).Seconds() * float64(sv.Rate) / float64(len(sv.streams))
		for i := range sv.streams {
			sv.streams[i].remaining -= drained
		}
	}
	sv.last = now
}

// reschedule completes drained streams (in admission order) and arms
// the timer for the next completion.
func (sv *Server) reschedule() {
	var buf [4]func()
	finished := buf[:0]
	live := sv.streams[:0]
	for _, st := range sv.streams {
		if st.remaining <= 0.5 { // sub-byte float residue counts as done
			finished = append(finished, st.done)
			continue
		}
		live = append(live, st)
	}
	clear(sv.streams[len(live):])
	sv.streams = live
	if len(live) == 0 {
		sv.timer.Stop()
	} else {
		least := live[0].remaining
		for _, st := range live[1:] {
			least = min(least, st.remaining)
		}
		per := float64(sv.Rate) / float64(len(live))
		sv.timer.Reset(sim.Time(least / per * float64(sim.Second)))
	}
	for _, fn := range finished {
		if fn != nil {
			fn()
		}
	}
}

// Copy moves n bytes between the disk region at base and the server:
// op node.Read uploads the region, node.Write downloads onto it. The
// disk side is paced (PaceDisk at rate bytes/second, 0 = unthrottled)
// so it shares the spindle with foreground I/O; the network side is one
// stream, since fair sharing is the pipe's job. done fires once both
// have finished.
func (sv *Server) Copy(tag string, disk *node.Disk, op node.DiskOp, base, n, rate int64, done func()) {
	if n <= 0 {
		sv.s.DoAfter(0, "xfer.zero", done)
		return
	}
	both := 2
	fin := func() {
		if both--; both == 0 {
			done()
		}
	}
	PaceDisk(sv.s, disk, op, base, n, rate, fin)
	sv.stream(tag, n, op == node.Read, fin)
}

// DefaultRateLimit is the paper's background-transfer rate limit in
// bytes/second (§5.3).
const DefaultRateLimit = 10 << 20

// ChunkBytes is the unit of background copying and demand paging.
const ChunkBytes = 1 << 20

// paceTime is the minimum time n bytes may take at rate bytes/second
// (0 = unthrottled).
func paceTime(n, rate int64) sim.Time {
	if rate <= 0 {
		return 0
	}
	return sim.Time(float64(n) / float64(rate) * float64(sim.Second))
}

// pacer is one PaceDisk run: a single request re-issued chunk by chunk.
type pacer struct {
	s     *sim.Simulator
	disk  *node.Disk
	req   node.DiskRequest
	end   int64    // one past the region's last byte
	gap   sim.Time // minimum time per chunk
	floor sim.Time // earliest issue of the next chunk
	next  func()
	done  func()
}

// PaceDisk issues op requests covering the n bytes at base on disk, in
// ChunkBytes pieces started no faster than rate bytes/second (0 =
// unthrottled), and calls done once the last completes. This is the
// disk side of the paper's rate-limited background copy (§5.3): a
// monolithic request would head-of-line block every foreground I/O
// behind the whole region.
func PaceDisk(s *sim.Simulator, disk *node.Disk, op node.DiskOp, base, n, rate int64, done func()) {
	if n <= 0 {
		s.DoAfter(0, "xfer.pace0", done)
		return
	}
	p := &pacer{s: s, disk: disk, end: base + n, gap: paceTime(ChunkBytes, rate), done: done}
	p.req = node.DiskRequest{Op: op, LBA: base, Done: p.completed}
	p.next = p.issue
	p.issue()
}

func (p *pacer) issue() {
	p.req.Bytes = min(ChunkBytes, p.end-p.req.LBA)
	p.floor = p.s.Now() + p.gap
	p.disk.Submit(&p.req)
}

func (p *pacer) completed() {
	p.req.LBA += p.req.Bytes
	if p.req.LBA >= p.end {
		p.done()
		return
	}
	p.s.DoAfter(p.floor-p.s.Now(), "xfer.pace", p.next)
}

// LazyMirror wraps a block backend whose contents are partially remote:
// reads of not-yet-present chunks fault and fetch over the control
// network first (demand paging), while a rate-limited background fill
// streams the rest (lazy copy-in, §5.1). Chunk granularity is
// ChunkBytes. Every fetch path — background fill, demand fault,
// readahead — goes through one in-flight table, so a chunk is never
// downloaded twice and readers wait on fetches already under way.
type LazyMirror struct {
	s       *sim.Simulator
	backend Backend
	server  *Server

	present  map[int64]bool // chunk index -> local
	inflight map[int64]bool // chunk index -> download under way
	waiters  map[int64][]func()
	total    int64 // bytes under management
	rate     int64 // background fill limit, bytes/second (0 = unthrottled)
	tag      string

	// Base offsets the managed region: bytes in [Base, Base+total) are
	// remote until fetched; everything else is local.
	Base int64

	// Faults counts demand fetches triggered by guest reads.
	Faults uint64
}

// Backend is the byte-addressed device being mirrored (matches
// guest.BlockBackend).
type Backend interface {
	Read(off, n int64, done func())
	Write(off, n int64, done func())
}

// NewLazyMirror manages total bytes of remote content over backend. The
// background fill runs at DefaultRateLimit.
func NewLazyMirror(s *sim.Simulator, backend Backend, server *Server, total int64) *LazyMirror {
	return &LazyMirror{
		s: s, backend: backend, server: server,
		present:  make(map[int64]bool),
		inflight: make(map[int64]bool),
		waiters:  make(map[int64][]func()),
		total:    total,
		rate:     DefaultRateLimit,
	}
}

// SetBackgroundRate adjusts the background fill's rate limit
// (bytes/second; 0 = unthrottled).
func (lm *LazyMirror) SetBackgroundRate(bps int64) { lm.rate = bps }

// SetTag attributes this mirror's server bytes to an experiment.
func (lm *LazyMirror) SetTag(tag string) { lm.tag = tag }

// chunks reports the number of managed chunks.
func (lm *LazyMirror) chunks() int64 {
	return (lm.total + ChunkBytes - 1) / ChunkBytes
}

// chunkLen reports the bytes in chunk c: ChunkBytes, less for the tail.
func (lm *LazyMirror) chunkLen(c int64) int64 {
	return min(ChunkBytes, lm.total-c*ChunkBytes)
}

// fetch downloads chunk c unless local or already in flight; then fires
// the chunk's waiters.
func (lm *LazyMirror) fetch(c int64) {
	if lm.present[c] || lm.inflight[c] || c < 0 || c >= lm.chunks() {
		return
	}
	lm.inflight[c] = true
	n := lm.chunkLen(c)
	lm.server.StreamDownload(lm.tag, n, func() {
		lm.backend.Write(lm.Base+c*ChunkBytes, n, func() {
			lm.arrived(c)
		})
	})
}

// arrived marks a chunk local and wakes its waiters.
func (lm *LazyMirror) arrived(c int64) {
	lm.present[c] = true
	delete(lm.inflight, c)
	ws := lm.waiters[c]
	delete(lm.waiters, c)
	for _, w := range ws {
		w()
	}
}

// StartBackground begins filling missing chunks sequentially at the
// background rate limit; done fires when everything is local.
func (lm *LazyMirror) StartBackground(done func()) {
	lm.fillNext(0, done)
}

func (lm *LazyMirror) fillNext(idx int64, done func()) {
	for idx < lm.chunks() && (lm.present[idx] || lm.inflight[idx]) {
		if lm.inflight[idx] {
			// Wait for the in-flight fetch (a fault got there first).
			idx := idx
			lm.waiters[idx] = append(lm.waiters[idx], func() { lm.fillNext(idx+1, done) })
			return
		}
		idx++
	}
	if idx >= lm.chunks() {
		if done != nil {
			done()
		}
		return
	}
	floor := lm.s.Now() + paceTime(ChunkBytes, lm.rate)
	lm.waiters[idx] = append(lm.waiters[idx], func() {
		lm.s.DoAfter(floor-lm.s.Now(), "xfer.bgfill", func() { lm.fillNext(idx+1, done) })
	})
	lm.fetch(idx)
}

// Resident reports how many bytes of the managed region are local.
func (lm *LazyMirror) Resident() int64 {
	n := int64(len(lm.present)) * ChunkBytes
	if last := lm.chunks() - 1; lm.present[last] {
		n -= ChunkBytes - lm.chunkLen(last)
	}
	return n
}

// span reports the managed chunks lo..hi that [off, off+n) overlaps; ok
// is false if it overlaps none.
func (lm *LazyMirror) span(off, n int64) (lo, hi int64, ok bool) {
	if off+n <= lm.Base || off >= lm.Base+lm.total {
		return 0, 0, false
	}
	return max(off-lm.Base, 0) / ChunkBytes, (min(off+n, lm.Base+lm.total) - lm.Base - 1) / ChunkBytes, true
}

// ensure faults in every chunk overlapping [off, off+n), then fn.
func (lm *LazyMirror) ensure(off, n int64, fn func()) {
	lo, hi, ok := lm.span(off, n)
	var missing []int64
	for c := lo; ok && c <= hi; c++ {
		if !lm.present[c] {
			missing = append(missing, c)
		}
	}
	if len(missing) == 0 {
		fn()
		return
	}
	remaining := len(missing)
	for _, c := range missing {
		lm.Faults++
		lm.waiters[c] = append(lm.waiters[c], func() {
			remaining--
			if remaining == 0 {
				fn()
			}
		})
		lm.fetch(c)
	}
	// Readahead: prefetch the next chunk so sequential readers overlap
	// fetch latency with their local I/O.
	lm.fetch(hi + 1)
}

// Read implements Backend: demand-fetch then read locally.
func (lm *LazyMirror) Read(off, n int64, done func()) {
	lm.ensure(off, n, func() { lm.backend.Read(off, n, done) })
}

// Write implements Backend: writes land locally and mark overlapped
// chunks present (they are now newer than the remote copy).
func (lm *LazyMirror) Write(off, n int64, done func()) {
	lo, hi, ok := lm.span(off, n)
	for c := lo; ok && c <= hi; c++ {
		lm.present[c] = true
	}
	lm.backend.Write(off, n, done)
}
