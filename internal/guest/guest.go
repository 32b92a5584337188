// Package guest models the paravirtualized Linux guest kernel that runs
// on every experiment node (paper §4.1–4.2): a process abstraction over
// the temporal firewall, jiffies-based timers with Linux sleep rounding,
// a CPU-charged network tx/rx path (the Xen paravirtual net front-end),
// a virtual block device with in-flight request draining, dirty-page
// tracking for live checkpointing, and the suspend/resume protocol the
// hypervisor drives over XenBus.
//
// The activity taxonomy matches the paper: user code runs as
// firewall.UserThread, deferred network work as firewall.SoftIRQ, sleep
// wakeups as firewall.TimerJob — all inside the firewall. The suspend
// thread, XenBus handlers and block-drain IRQs run outside, and they are
// the only things that run during a checkpoint.
package guest

import (
	"fmt"

	"emucheck/internal/firewall"
	"emucheck/internal/node"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
	"emucheck/internal/vclock"
)

// Message is the envelope guest applications exchange. Port multiplexes
// services on a node (an iperf sink, a BitTorrent peer, an event agent).
//
// A message embeds the packet it travels in, so a message and its
// packet are one heap object. Kernel.Send takes the message over until
// the port handler returns: a sender may then zero the message and send
// it again, unless a checkpoint image pinned it on the way (Pin). Pool
// does that for an app's messages.
type Message struct {
	Port string
	Data any

	pkt simnet.Packet
}

// Pin implements dummynet.Pinner by forwarding to Data, the part of
// the message its sender may recycle.
func (m *Message) Pin() {
	if p, ok := m.Data.(interface{ Pin() }); ok {
		p.Pin()
	}
}

// BlockBackend is where guest block I/O lands: the raw disk for a plain
// image, or a branching COW volume (package storage) when the node is
// swappable. Offsets are bytes within the guest's virtual disk. A
// backend calls done exactly once per request, after the I/O completes:
// the kernel recycles the completion the moment it fires.
type BlockBackend interface {
	Read(off, n int64, done func())
	Write(off, n int64, done func())
}

// RawDiskBackend adapts a node.Disk as a BlockBackend.
type RawDiskBackend struct{ Disk *node.Disk }

// Read submits a read request.
func (b *RawDiskBackend) Read(off, n int64, done func()) {
	b.Disk.Submit(&node.DiskRequest{Op: node.Read, LBA: off, Bytes: n, Done: done})
}

// Write submits a write request.
func (b *RawDiskBackend) Write(off, n int64, done func()) {
	b.Disk.Submit(&node.DiskRequest{Op: node.Write, LBA: off, Bytes: n, Done: done})
}

// DirtyTracker approximates the hypervisor's dirty-page log used by the
// live checkpoint's pre-copy rounds.
type DirtyTracker struct {
	PageSize    int
	Resident    int // pages ever touched (bounds a full save)
	MaxResident int // guest memory size in pages
	// ActiveWSS bounds the pages that can be dirty at once: between
	// checkpoints, applications re-dirty a working set (socket buffers,
	// page-cache churn) rather than the whole resident set. A full save
	// still moves Resident pages; incremental rounds move at most this.
	ActiveWSS int
	dirty     int
	Total     uint64 // lifetime dirtied pages

	// sinceEpoch counts distinct page-dirtying since the last CutEpoch —
	// the state an incremental swap-out must move. Unlike the dirty log
	// it is not consumed by pre-copy rounds (ForceDirty returns pages to
	// the log without re-counting them), so it measures the epoch's
	// working set, capped at the resident set.
	sinceEpoch int
}

// Touch marks n existing pages dirty (re-writes within the resident
// set — background housekeeping never grows the footprint).
func (d *DirtyTracker) Touch(n int) {
	if n <= 0 {
		return
	}
	limit := d.Resident
	if d.ActiveWSS > 0 && d.ActiveWSS < limit {
		limit = d.ActiveWSS
	}
	// The working-set cap limits growth; it never claws back pages that
	// are already dirty (e.g. returned by a capped pre-copy round).
	if d.dirty < limit {
		d.dirty += n
		if d.dirty > limit {
			d.dirty = limit
		}
	}
	d.sinceEpoch += n
	if d.sinceEpoch > d.Resident {
		d.sinceEpoch = d.Resident
	}
	d.Total += uint64(n)
}

// ForceDirty marks n pages dirty bypassing the working-set cap, bounded
// only by the resident set. The hypervisor uses it to return pages a
// capped pre-copy round could not move — those are real dirty pages, not
// fresh application writes.
func (d *DirtyTracker) ForceDirty(n int) {
	if n <= 0 {
		return
	}
	d.dirty += n
	if d.dirty > d.Resident {
		d.dirty = d.Resident
	}
}

// Grow extends the resident set by n freshly allocated pages, capped at
// the guest's memory size, and marks them dirty.
func (d *DirtyTracker) Grow(n int) {
	if n <= 0 {
		return
	}
	d.Resident += n
	if d.MaxResident > 0 && d.Resident > d.MaxResident {
		d.Resident = d.MaxResident
	}
	d.Touch(n)
}

// TouchBytes dirties ceil(bytes/PageSize) pages.
func (d *DirtyTracker) TouchBytes(b int64) {
	if b <= 0 {
		return
	}
	d.Touch(int((b + int64(d.PageSize) - 1) / int64(d.PageSize)))
}

// TakeDirty returns and clears the dirty page count (one pre-copy round).
func (d *DirtyTracker) TakeDirty() int {
	n := d.dirty
	d.dirty = 0
	return n
}

// Dirty reports the current dirty page count.
func (d *DirtyTracker) Dirty() int { return d.dirty }

// EpochDirty reports pages dirtied since the last CutEpoch without
// consuming them — the scheduler's park-cost signal: preempting a guest
// costs transfer proportional to this, not to its full resident set.
func (d *DirtyTracker) EpochDirty() int { return d.sinceEpoch }

// CutEpoch closes the current dirty epoch: it returns the pages dirtied
// since the previous cut and starts a fresh epoch. Swap-out calls it
// when the epoch's state has been committed to the checkpoint lineage.
func (d *DirtyTracker) CutEpoch() int {
	n := d.sinceEpoch
	d.sinceEpoch = 0
	return n
}

// Config tunes one guest kernel.
type Config struct {
	WallEpoch     sim.Time
	HZ            int // timer interrupt frequency; Linux-on-Xen uses 100
	BootResident  int // pages resident after boot
	BaseDirtyRate int // background kernel dirtying, pages/second
}

// DefaultConfig matches the paper's FC4 guest with 256 MB of memory:
// after boot and normal use, most of the 65536 pages are resident, so a
// full (swap-out) memory image approaches 256 MB.
func DefaultConfig() Config {
	return Config{HZ: 100, BootResident: 58000, BaseDirtyRate: 40}
}

// Kernel is one guest kernel instance.
type Kernel struct {
	Name  string
	M     *node.Machine
	P     node.Params
	Cfg   Config
	Clock *vclock.Clock
	FW    *firewall.Firewall
	Dirty DirtyTracker

	Backend BlockBackend

	handlers map[string]func(from simnet.Addr, m *Message)
	lastPort string                             // with lastH, a memo of the last
	lastH    func(from simnet.Addr, m *Message) // dispatch: handlers[lastPort]

	// The tx and rx pumps each charge one packet's softirq CPU at a
	// time on one reusable compute handle; cur is that packet.
	txq    sim.FIFO[*simnet.Packet]
	txCur  *simnet.Packet
	txJob  *firewall.Handle
	txBusy bool
	rxq    sim.FIFO[*simnet.Packet]
	rxCur  *simnet.Packet
	rxJob  *firewall.Handle
	rxBusy bool

	inflightIO int
	ioWaiters  []func()

	suspended        bool
	resuming         bool
	crashed          bool
	lastDirtyAccrual sim.Time

	// labels caches the per-kernel event labels of the hot paths:
	// Usleep fires every ~100 ms per tenant node, and every packet pays
	// a tx or rx softirq and every block request a completion IRQ — at
	// fleet scale rebuilding the name concatenation per call is
	// measurable allocation churn (the PR 6 usleep fix, generalized by
	// the PR 8 -memprofile sweep).
	labels struct {
		usleep  string
		nettx   string
		netrx   string
		bioDone string
	}

	// Statistics.
	SentPackets uint64
	RcvdPackets uint64
	Checkpoints int

	ioFree []*ioReq // recycled block-request completions
}

// New boots a guest kernel on machine m.
func New(m *node.Machine, p node.Params, cfg Config) *Kernel {
	if cfg.HZ <= 0 {
		cfg.HZ = 100
	}
	clock := vclock.New(m.Sim, cfg.WallEpoch)
	k := &Kernel{
		Name:  m.Name,
		M:     m,
		P:     p,
		Cfg:   cfg,
		Clock: clock,
		FW:    firewall.New(m.Sim, clock),
		Dirty: DirtyTracker{
			PageSize:    p.PageSize,
			Resident:    cfg.BootResident,
			MaxResident: int(p.GuestMemBytes / int64(p.PageSize)),
			ActiveWSS:   12000, // ~48 MB of hot pages between checkpoints
		},
		Backend:  &RawDiskBackend{Disk: m.Disk},
		handlers: make(map[string]func(simnet.Addr, *Message)),
	}
	k.labels.usleep = m.Name + ".usleep"
	k.labels.nettx = m.Name + ".nettx"
	k.labels.netrx = m.Name + ".netrx"
	k.labels.bioDone = m.Name + ".bio-done"
	k.txJob = k.FW.NewCompute(firewall.SoftIRQ, m.CPU, k.labels.nettx, k.txDone)
	k.rxJob = k.FW.NewCompute(firewall.SoftIRQ, m.CPU, k.labels.netrx, k.rxDone)
	m.ExpNIC.OnReceive(k.receive)
	return k
}

// AccrueBackgroundDirty charges the steady kernel-housekeeping memory
// traffic (page cache churn, timers, logs) that dirties pages even in an
// idle guest. It is called lazily — by the hypervisor before reading the
// dirty log — instead of running a periodic event, so an idle guest
// leaves the event queue quiet.
func (k *Kernel) AccrueBackgroundDirty() {
	now := k.Clock.SystemTime()
	elapsed := now - k.lastDirtyAccrual
	if elapsed <= 0 {
		return
	}
	k.lastDirtyAccrual = now
	k.Dirty.Touch(int(int64(k.Cfg.BaseDirtyRate) * int64(elapsed) / int64(sim.Second)))
}

// Jiffy reports the timer-interrupt period.
func (k *Kernel) Jiffy() sim.Time { return sim.Second / sim.Time(k.Cfg.HZ) }

// Suspended reports whether the kernel is checkpoint-suspended.
func (k *Kernel) Suspended() bool { return k.suspended }

// --- Time services -------------------------------------------------

// Gettimeofday reports the guest's wall clock at µs resolution.
func (k *Kernel) Gettimeofday() sim.Time { return k.Clock.Gettimeofday() }

// Monotonic reports guest nanoseconds since boot.
func (k *Kernel) Monotonic() sim.Time { return k.Clock.SystemTime() }

// Usleep wakes fn after at least d of virtual time, with Linux
// schedule_timeout semantics: the wakeup lands on the first timer tick
// strictly after now+d (which is why a 10 ms sleep in a loop measures
// 20 ms per iteration at HZ=100 — the paper's Fig. 4 baseline), plus a
// small scheduling-latency jitter. A sleep cannot be cancelled; its
// firewall handle is pooled.
func (k *Kernel) Usleep(d sim.Time, fn func()) {
	now := k.Clock.SystemTime()
	jiffy := k.Jiffy()
	wake := ((now+d)/jiffy + 1) * jiffy
	delay := wake - now + k.M.Sim.Normal(k.P.WakeupJitterMean, k.P.WakeupJitterStddev)
	k.FW.Do(firewall.TimerJob, delay, k.labels.usleep, fn)
}

// AfterVirtual arms a plain inside-firewall timer without tick rounding
// (kernel hrtimer-style), used by protocol retransmission timers.
func (k *Kernel) AfterVirtual(d sim.Time, name string, fn func()) *firewall.Handle {
	return k.FW.After(firewall.TimerJob, d, name, fn)
}

// CancelTimer cancels a pending handle.
func (k *Kernel) CancelTimer(h *firewall.Handle) { k.FW.Cancel(h) }

// Compute runs `work` of user CPU time and then fn, feeling dom0
// contention. Computation dirties memory at ~8 MB/s of CPU time, a
// small fraction of which is fresh allocation.
func (k *Kernel) Compute(work sim.Time, name string, fn func()) *firewall.Handle {
	k.Dirty.Touch(int(work / (500 * sim.Microsecond)))
	k.Dirty.Grow(int(work / (5 * sim.Millisecond)))
	return k.FW.Compute(firewall.UserThread, k.M.CPU, work, name, fn)
}

// --- Network -------------------------------------------------------

// Handle registers the service handler for a message port.
func (k *Kernel) Handle(port string, h func(from simnet.Addr, m *Message)) {
	k.handlers[port] = h
	if port == k.lastPort {
		k.lastH = h
	}
}

// Send queues a message to dst through the paravirtual net front-end.
// Each packet costs XenNetTxCost of CPU inside the firewall before
// hitting the NIC, so the tx path stalls during checkpoints and slows
// under dom0 interference.
//
// Send allocates nothing: m travels in its embedded packet. Send takes
// m over until m's port handler returns; a second Send before the
// sender zeroes m panics. A delay-node image may hold the packet past
// delivery, and it pins m when it does (Message.Pin), so a sender that
// recycles messages must skip pinned ones, as Pool does.
func (k *Kernel) Send(dst simnet.Addr, size int, m *Message) {
	if m.pkt.Payload != nil {
		panic(fmt.Sprintf("guest: %s: message on port %q sent twice", k.Name, m.Port))
	}
	// pkt is zero until its first Send: set only what Send owns.
	m.pkt.Dst, m.pkt.Size, m.pkt.Payload = dst, size, m
	k.txq.Push(&m.pkt)
	if !k.txBusy {
		k.txPump()
	}
}

func (k *Kernel) txPump() {
	if k.txq.Len() == 0 {
		k.txBusy = false
		return
	}
	k.txBusy = true
	k.txCur = k.txq.Pop()
	k.txJob.Start(k.P.XenNetTxCost)
}

func (k *Kernel) txDone() {
	pkt := k.txCur
	k.txCur = nil
	k.SentPackets++
	k.M.ExpNIC.Send(pkt)
	k.txPump()
}

// receive is the NIC handler: charge rx CPU, then dispatch by port.
func (k *Kernel) receive(pkt *simnet.Packet) {
	k.rxq.Push(pkt)
	if !k.rxBusy {
		k.rxPump()
	}
}

func (k *Kernel) rxPump() {
	if k.rxq.Len() == 0 {
		k.rxBusy = false
		return
	}
	k.rxBusy = true
	k.rxCur = k.rxq.Pop()
	k.rxJob.Start(k.P.XenNetRxCost)
}

func (k *Kernel) rxDone() {
	pkt := k.rxCur
	k.rxCur = nil
	k.RcvdPackets++
	k.Dirty.TouchBytes(int64(pkt.Size))
	if m, ok := pkt.Payload.(*Message); ok {
		if m.Port != k.lastPort {
			k.lastPort, k.lastH = m.Port, k.handlers[m.Port]
		}
		if k.lastH != nil {
			k.lastH(pkt.Src, m)
		}
	}
	k.rxPump()
}

// TxQueueLen reports packets waiting in the paravirtual tx path.
func (k *Kernel) TxQueueLen() int { return k.txq.Len() }

// --- Block I/O -----------------------------------------------------

// ioReq is one block request's completion: done, bound once when the
// request is first made, hands fn to ioDone. Requests are recycled
// through the kernel's free list, so steady block I/O allocates nothing.
type ioReq struct {
	k    *Kernel
	fn   func()
	done func()
}

// ioStart counts a request in flight and returns its completion.
func (k *Kernel) ioStart(fn func()) func() {
	k.inflightIO++
	var r *ioReq
	if n := len(k.ioFree); n > 0 {
		r = k.ioFree[n-1]
		k.ioFree = k.ioFree[:n-1]
	} else {
		r = &ioReq{k: k}
		r.done = r.complete
	}
	r.fn = fn
	return r.done
}

// complete recycles r before ioDone runs, so a continuation that issues
// the next request reuses it.
func (r *ioReq) complete() {
	k, fn := r.k, r.fn
	r.fn = nil
	k.ioFree = append(k.ioFree, r)
	k.ioDone(fn)
}

// ReadDisk reads n bytes at off through the block front-end; fn runs as
// guest code when the I/O completes (parked if a checkpoint intervenes).
func (k *Kernel) ReadDisk(off, n int64, fn func()) {
	k.Dirty.TouchBytes(n)
	k.Backend.Read(off, n, k.ioStart(fn))
}

// WriteDisk writes n bytes at off through the block front-end.
func (k *Kernel) WriteDisk(off, n int64, fn func()) {
	k.Backend.Write(off, n, k.ioStart(fn))
}

// ioDone runs as a block IRQ — outside the firewall so in-flight
// requests can drain during a checkpoint (§4.1). The guest continuation
// is parked behind the firewall.
func (k *Kernel) ioDone(fn func()) {
	k.inflightIO--
	if fn != nil {
		k.FW.Do(firewall.SoftIRQ, 0, k.labels.bioDone, fn)
	}
	if k.inflightIO == 0 && len(k.ioWaiters) > 0 {
		ws := k.ioWaiters
		k.ioWaiters = nil
		for _, w := range ws {
			w()
		}
	}
}

// InflightIO reports block requests issued but not completed.
func (k *Kernel) InflightIO() int { return k.inflightIO }

// drainIO fires fn (outside the firewall) once in-flight block requests
// have completed.
func (k *Kernel) drainIO(fn func()) {
	if k.inflightIO == 0 {
		k.M.Sim.DoAfter(0, k.Name+".drained", fn)
		return
	}
	k.ioWaiters = append(k.ioWaiters, fn)
}

// --- Checkpoint protocol (driven by the hypervisor over XenBus) -----

// leakSplit draws the total firewall leak for one checkpoint and splits
// it between the engage and disengage paths.
func (k *Kernel) leakSplit() (engage, disengage sim.Time) {
	total := k.M.Sim.Uniform(k.P.FirewallLeakLo, k.P.FirewallLeakHi)
	return total * 6 / 10, total * 4 / 10
}

// Suspend is the guest half of the checkpoint: the suspend thread
// engages the temporal firewall (freezing time and all inside activity),
// drains in-flight block I/O, freezes the net front-end, and quiesces
// devices. done receives the disengage-leak to apply at resume and runs
// outside the firewall when the guest is fully quiesced.
func (k *Kernel) Suspend(done func()) error {
	if k.suspended {
		return fmt.Errorf("guest %s: suspend while suspended", k.Name)
	}
	k.suspended = true
	k.Checkpoints++
	engageLeak, _ := k.leakSplit()
	k.FW.Engage(engageLeak)
	k.M.ExpNIC.Freeze()
	k.Clock.SetRunstate(vclock.Offline)
	k.drainIO(func() {
		// Device quiesce: tear down front-end/back-end connections.
		k.M.Sim.DoAfter(k.P.DeviceQuiesce, k.Name+".quiesce", done)
	})
	return nil
}

// Crash fail-stops the kernel: the temporal firewall engages on the
// spot and nothing on this incarnation ever disengages it, the NIC
// freezes, and in-flight I/O and timers are simply abandoned — the
// un-graceful sibling of Suspend, with no drain and no device quiesce.
// A kernel that is already checkpoint-suspended stays as it is: the
// crashed state is whatever the freeze captured.
func (k *Kernel) Crash() {
	k.crashed = true
	if k.suspended {
		return
	}
	k.suspended = true
	k.FW.Engage(0)
	k.M.ExpNIC.Freeze()
	k.Clock.SetRunstate(vclock.Offline)
}

// Revive clears the crash flag ahead of a recovery resume; the caller
// (xen.Hypervisor.Restore) has re-staged the kernel's state first.
func (k *Kernel) Revive() { k.crashed = false }

// Crashed reports whether the kernel has fail-stopped.
func (k *Kernel) Crashed() bool { return k.crashed }

// Resume reconnects devices and disengages the firewall. fn, if non-nil,
// runs after the guest is live again.
func (k *Kernel) Resume(fn func()) error {
	if !k.suspended {
		return fmt.Errorf("guest %s: resume while running", k.Name)
	}
	if k.resuming {
		// An epoch abort can race a second thaw at the same member; the
		// reconnect already under way covers both.
		return fmt.Errorf("guest %s: resume already in progress", k.Name)
	}
	k.resuming = true
	_, disengageLeak := k.leakSplit()
	k.M.Sim.DoAfter(k.P.DeviceReconnect, k.Name+".reconnect", func() {
		k.resuming = false
		if k.crashed {
			// The machine died while devices were reconnecting: the guest
			// stays frozen for recovery.
			return
		}
		k.suspended = false
		k.M.ExpNIC.Thaw()
		k.FW.Disengage(disengageLeak)
		k.Clock.SetRunstate(vclock.Running)
		if fn != nil {
			fn()
		}
	})
	return nil
}

// MemoryImageBytes reports the size of the resident memory image.
func (k *Kernel) MemoryImageBytes() int64 {
	return int64(k.Dirty.Resident) * int64(k.P.PageSize)
}
