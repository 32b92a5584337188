// Package xfer implements the background block-transfer machinery of
// stateful swapping (paper §5.1, §5.3): rate-limited streaming built on
// LVM-mirror-style remote redirection, with an eager pre-copy mode for
// swap-out and a lazy demand-paged mode for swap-in.
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
// network. Plain transfers are serialized FIFO at the configured rate —
// the 100 Mbps control LAN is the bottleneck the paper calls out in
// §7.2 — while Stream transfers share the same pipe fairly
// (processor-sharing), modeling the pipelined per-node uploads of the
// incremental swap path instead of serialized full copies.
type Server struct {
	s *sim.Simulator
	// Rate is the shared pipe's bandwidth in bytes/second.
	Rate int64

	busyUntil sim.Time
	// Received and Served count bytes moved node->server and
	// server->node respectively, for reports.
	Received uint64
	Served   uint64

	// Processor-sharing stream state: every active stream gets an equal
	// share of Rate; membership changes resettle the remaining bytes.
	streams    []*stream
	streamEv   *sim.Event
	streamLast sim.Time

	// Queued is the total time transfers spent waiting behind earlier
	// bytes in the shared pipe — the control-LAN bottleneck of §7.2.
	// It counts all serialization, both an experiment's own concurrent
	// streams and its neighbors'; ByTag apportions the bytes when the
	// cross-experiment share matters.
	Queued sim.Time
	// MulticastSavedBytes accumulates the extra bytes unicast staging
	// would have moved: for every Multicast of n bytes to k receivers,
	// (k-1)*n bytes never crossed the control LAN.
	MulticastSavedBytes int64
	// MaxBacklog is the worst backlog observed at enqueue time.
	MaxBacklog sim.Time
	// ByTag attributes bytes moved (both directions) per experiment.
	ByTag map[string]int64
}

// NewServer creates a file server; rate defaults to 100 Mbps worth of
// bytes if zero.
func NewServer(s *sim.Simulator, rate int64) *Server {
	if rate <= 0 {
		rate = 100_000_000 / 8
	}
	return &Server{s: s, Rate: rate, ByTag: make(map[string]int64)}
}

// transfer schedules n bytes through the shared server pipe and fires
// done when this transfer's bytes have fully drained.
func (sv *Server) transfer(tag string, n int64, up bool, done func()) {
	if n <= 0 {
		sv.s.DoAfter(0, "xfer.zero", done)
		return
	}
	start := sv.s.Now()
	if sv.busyUntil > start {
		wait := sv.busyUntil - start
		sv.Queued += wait
		if wait > sv.MaxBacklog {
			sv.MaxBacklog = wait
		}
		start = sv.busyUntil
	}
	dur := sim.Time(float64(n) / float64(sv.Rate) * float64(sim.Second))
	sv.busyUntil = start + dur
	sv.account(tag, n, up)
	sv.s.DoAt(sv.busyUntil, "xfer.server", done)
}

// UploadTagged moves n bytes node->server through the FIFO pipe,
// attributed to the experiment tag.
func (sv *Server) UploadTagged(tag string, n int64, done func()) { sv.transfer(tag, n, true, done) }

// DownloadTagged moves n bytes server->node through the FIFO pipe.
func (sv *Server) DownloadTagged(tag string, n int64, done func()) { sv.transfer(tag, n, false, done) }

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

// StreamUpload moves n bytes node->server through the fair-share pipe:
// concurrent streams split Rate equally instead of queueing FIFO, so N
// parallel per-node uploads overlap rather than serialize — a small
// swap-out is never stuck behind a neighbor's full image.
func (sv *Server) StreamUpload(tag string, n int64, done func()) { sv.stream(tag, n, true, done) }

// StreamDownload moves n bytes server->node through the fair-share pipe.
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

// ActiveStreams reports how many fair-share transfers are in flight.
func (sv *Server) ActiveStreams() int { return len(sv.streams) }

func (sv *Server) stream(tag string, n int64, up bool, done func()) {
	if n <= 0 {
		sv.s.DoAfter(0, "xfer.zero", done)
		return
	}
	sv.account(tag, n, up)
	sv.settleStreams()
	sv.streams = append(sv.streams, &stream{remaining: float64(n), done: done})
	sv.rescheduleStreams()
}

// settleStreams charges elapsed time against every active stream at the
// current per-stream share.
func (sv *Server) settleStreams() {
	now := sv.s.Now()
	if len(sv.streams) > 0 {
		per := float64(sv.Rate) / float64(len(sv.streams))
		elapsed := (now - sv.streamLast).Seconds()
		for _, st := range sv.streams {
			st.remaining -= elapsed * per
		}
	}
	sv.streamLast = now
}

// rescheduleStreams completes drained streams (in admission order) and
// arms the next completion event.
func (sv *Server) rescheduleStreams() {
	var finished []func()
	live := sv.streams[:0]
	for _, st := range sv.streams {
		if st.remaining <= 0.5 { // sub-byte float residue counts as done
			finished = append(finished, st.done)
			continue
		}
		live = append(live, st)
	}
	sv.streams = live
	if sv.streamEv != nil && !sv.streamEv.Cancelled() {
		sv.s.Cancel(sv.streamEv)
	}
	sv.streamEv = nil
	if len(sv.streams) > 0 {
		per := float64(sv.Rate) / float64(len(sv.streams))
		min := sv.streams[0].remaining
		for _, st := range sv.streams[1:] {
			if st.remaining < min {
				min = st.remaining
			}
		}
		dur := sim.Time(min / per * float64(sim.Second))
		sv.streamEv = sv.s.After(dur, "xfer.stream", func() {
			sv.streamEv = nil
			sv.settleStreams()
			sv.rescheduleStreams()
		})
	}
	for _, fn := range finished {
		if fn != nil {
			fn()
		}
	}
}

// DefaultRateLimit is the paper's background-transfer rate limit in
// bytes/second (§5.3).
const DefaultRateLimit = 10 << 20

// Copier streams a byte range between a local disk and the server in
// rate-limited chunks, sharing the spindle with foreground I/O.
type Copier struct {
	s      *sim.Simulator
	disk   *node.Disk
	server *Server

	// ChunkBytes is the unit of background copying (default 1 MiB).
	ChunkBytes int64
	// RateLimit caps background throughput in bytes/second; this is the
	// paper's rate-limiting function (§5.3). Zero means unthrottled.
	RateLimit int64
	// Tag attributes this copy's server bytes to an experiment.
	Tag string

	cancelled bool
	// Moved reports bytes copied so far.
	Moved int64
	// Resent counts bytes re-copied because they were re-dirtied.
	Resent int64
}

// NewCopier builds a copier between disk and server.
func NewCopier(s *sim.Simulator, disk *node.Disk, server *Server) *Copier {
	return &Copier{s: s, disk: disk, server: server, ChunkBytes: 1 << 20, RateLimit: DefaultRateLimit}
}

// Cancel stops the copy: no further chunks are scheduled after the one
// in flight, and the copy's done callback fires promptly with the bytes
// moved so far. Cancellation is checked at every stage boundary (before
// the disk op, before the server transfer, and before the pacing wait),
// so a cancel lands within one chunk everywhere in the pipeline.
func (c *Copier) Cancel() { c.cancelled = true }

// Cancelled reports whether Cancel was called.
func (c *Copier) Cancelled() bool { return c.cancelled }

// pace reports the minimum wall time one chunk may take under the rate
// limit.
func (c *Copier) pace(n int64) sim.Time {
	if c.RateLimit <= 0 {
		return 0
	}
	return sim.Time(float64(n) / float64(c.RateLimit) * float64(sim.Second))
}

// CopyOut streams n bytes from the disk region at base to the server:
// read chunk (sharing the spindle), upload, honor the rate limit, next
// chunk. done receives the total moved (less if cancelled).
func (c *Copier) CopyOut(base, n int64, done func(moved int64)) {
	c.copyOutFrom(base, base+n, done)
}

func (c *Copier) copyOutFrom(cur, end int64, done func(int64)) {
	if c.cancelled || cur >= end {
		done(c.Moved)
		return
	}
	n := c.ChunkBytes
	if end-cur < n {
		n = end - cur
	}
	floor := c.s.Now() + c.pace(n)
	c.disk.Submit(&node.DiskRequest{Op: node.Read, LBA: cur, Bytes: n, Done: func() {
		if c.cancelled {
			// Cancelled between the disk read and the upload: the chunk
			// never reached the server, so it does not count as moved.
			done(c.Moved)
			return
		}
		c.server.UploadTagged(c.Tag, n, func() {
			c.Moved += n
			if c.cancelled {
				// Skip the pacing wait; report what actually moved.
				done(c.Moved)
				return
			}
			next := floor - c.s.Now()
			c.s.DoAfter(next, "xfer.pace", func() { c.copyOutFrom(cur+n, end, done) })
		})
	}})
}

// CopyIn streams n bytes from the server onto the disk region at base.
func (c *Copier) CopyIn(base, n int64, done func(moved int64)) {
	c.copyInFrom(base, base+n, done)
}

func (c *Copier) copyInFrom(cur, end int64, done func(int64)) {
	if c.cancelled || cur >= end {
		done(c.Moved)
		return
	}
	n := c.ChunkBytes
	if end-cur < n {
		n = end - cur
	}
	floor := c.s.Now() + c.pace(n)
	c.server.DownloadTagged(c.Tag, n, func() {
		if c.cancelled {
			// The chunk crossed the network but was never written back;
			// it is not usable data, so it does not count as moved.
			done(c.Moved)
			return
		}
		c.disk.Submit(&node.DiskRequest{Op: node.Write, LBA: cur, Bytes: n, Done: func() {
			c.Moved += n
			if c.cancelled {
				done(c.Moved)
				return
			}
			next := floor - c.s.Now()
			c.s.DoAfter(next, "xfer.pace", func() { c.copyInFrom(cur+n, end, done) })
		}})
	})
}

// LazyMirror wraps a block backend whose contents are partially remote:
// reads of not-yet-present chunks fault and fetch over the control
// network first (demand paging), while a background CopyIn fills the
// rest (lazy copy-in, §5.1). Chunk granularity is ChunkBytes. Every
// fetch path — background fill, demand fault, readahead — goes through
// one in-flight table, so a chunk is never downloaded twice and readers
// wait on fetches already under way.
type LazyMirror struct {
	s       *sim.Simulator
	backend Backend
	server  *Server

	// ChunkBytes is the demand-paging granularity (default 1 MiB).
	ChunkBytes int64
	present    map[int64]bool // chunk index -> local
	inflight   map[int64]bool // chunk index -> download under way
	waiters    map[int64][]func()
	total      int64 // bytes under management
	bg         *Copier

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

// NewLazyMirror manages total bytes of remote content over backend.
func NewLazyMirror(s *sim.Simulator, backend Backend, server *Server, disk *node.Disk, total int64) *LazyMirror {
	lm := &LazyMirror{
		s: s, backend: backend, server: server,
		ChunkBytes: 1 << 20,
		present:    make(map[int64]bool),
		inflight:   make(map[int64]bool),
		waiters:    make(map[int64][]func()),
		total:      total,
	}
	lm.bg = NewCopier(s, disk, server)
	return lm
}

// SetBackgroundRate adjusts the background fill's rate limit
// (bytes/second; 0 = unthrottled).
func (lm *LazyMirror) SetBackgroundRate(bps int64) { lm.bg.RateLimit = bps }

// SetTag attributes this mirror's server bytes to an experiment.
func (lm *LazyMirror) SetTag(tag string) { lm.bg.Tag = tag }

// chunks reports the number of managed chunks.
func (lm *LazyMirror) chunks() int64 {
	return (lm.total + lm.ChunkBytes - 1) / lm.ChunkBytes
}

// fetch downloads chunk c unless local or already in flight; then fires
// the chunk's waiters.
func (lm *LazyMirror) fetch(c int64) {
	if lm.present[c] || lm.inflight[c] || c < 0 || c >= lm.chunks() {
		return
	}
	lm.inflight[c] = true
	n := lm.ChunkBytes
	if rem := lm.total - c*lm.ChunkBytes; rem < n {
		n = rem
	}
	lm.server.DownloadTagged(lm.bg.Tag, n, func() {
		lm.backend.Write(lm.Base+c*lm.ChunkBytes, n, func() {
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
	lm.bg.Moved += lm.ChunkBytes
	for _, w := range ws {
		w()
	}
}

// StartBackground begins filling missing chunks sequentially at the
// copier's rate limit; done fires when everything is local.
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
	floor := lm.s.Now() + lm.bg.pace(lm.ChunkBytes)
	lm.waiters[idx] = append(lm.waiters[idx], func() {
		lm.s.DoAfter(floor-lm.s.Now(), "xfer.bgfill", func() { lm.fillNext(idx+1, done) })
	})
	lm.fetch(idx)
}

// Resident reports how many bytes are local.
func (lm *LazyMirror) Resident() int64 {
	return int64(len(lm.present)) * lm.ChunkBytes
}

// ensure faults in every chunk overlapping [off, off+n), then fn.
func (lm *LazyMirror) ensure(off, n int64, fn func()) {
	if off+n <= lm.Base || off >= lm.Base+lm.total {
		fn()
		return
	}
	lo := max(off-lm.Base, 0) / lm.ChunkBytes
	hi := (min(off+n, lm.Base+lm.total) - lm.Base - 1) / lm.ChunkBytes
	var missing []int64
	for c := lo; c <= hi; c++ {
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
	if off+n > lm.Base && off < lm.Base+lm.total {
		lo := max(off-lm.Base, 0) / lm.ChunkBytes
		hi := (min(off+n, lm.Base+lm.total) - lm.Base - 1) / lm.ChunkBytes
		for c := lo; c <= hi; c++ {
			lm.present[c] = true
		}
	}
	lm.backend.Write(off, n, done)
}
