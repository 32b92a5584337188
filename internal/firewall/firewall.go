// Package firewall implements the paper's central mechanism, the
// temporal firewall (§4.1): a control layer inside the guest kernel that
// suspends time and execution for everything *inside* the firewall while
// the small set of activities that perform the checkpoint keep running
// *outside* it.
//
// The paper's classification of guest kernel activity — user threads,
// kernel threads, interrupt handlers, deferrable functions (softirqs,
// tasklets, workqueues), and timer jobs — maps directly onto the Class
// enum. The activities allowed outside are exactly those the paper
// enumerates: the suspend thread, virtual device drivers (block IRQ
// drain), and the XenBus event channels used to coordinate with the
// hypervisor. Exception handlers (page faults) also run outside.
//
// Engaging the firewall freezes the guest's virtual clock and unhooks
// every pending inside-activity, recording either remaining virtual time
// (timers) or remaining CPU work (compute bursts). Disengaging re-arms
// them, so from inside the firewall the checkpoint never happened.
package firewall

import (
	"fmt"

	"emucheck/internal/node"
	"emucheck/internal/sim"
	"emucheck/internal/vclock"
)

// Class identifies which kind of guest activity a scheduled callback
// belongs to, following the taxonomy of §4.1.
type Class int

// Activity classes. The first five live inside the firewall; the last
// three run outside during a checkpoint.
const (
	UserThread Class = iota
	KernelThread
	SoftIRQ
	TimerJob
	DeviceIRQ
	// Outside the firewall:
	SuspendThread
	XenBus
	BlockDrainIRQ
	PageFault
)

// Inside reports whether the class is suspended by an engaged firewall.
func (c Class) Inside() bool { return c < SuspendThread }

func (c Class) String() string {
	switch c {
	case UserThread:
		return "user-thread"
	case KernelThread:
		return "kernel-thread"
	case SoftIRQ:
		return "softirq"
	case TimerJob:
		return "timer"
	case DeviceIRQ:
		return "device-irq"
	case SuspendThread:
		return "suspend-thread"
	case XenBus:
		return "xenbus"
	case BlockDrainIRQ:
		return "block-drain-irq"
	default:
		return "page-fault"
	}
}

type kind int

const (
	kindTimer kind = iota
	kindCompute
)

// Handle is one scheduled guest activity. A handle from NewTimer or
// NewCompute can be started again each time it has fired or been
// cancelled.
type Handle struct {
	fw    *Firewall
	class Class
	name  string
	k     kind
	fn    func()

	// tm is the handle's reusable underlying event: the handle owns it
	// exclusively (sim.Timer's single-owner contract), so one Event
	// serves every arm across engage/disengage/replan cycles and the
	// handle+event pair is a single allocation.
	tm   sim.Timer
	done bool
	// pooled marks a handle that Do took from the firewall's free list:
	// no caller holds it, so fire returns it to the list. It sits in the
	// padding after done, keeping Handle at 160 bytes.
	pooled bool
	// idx is the handle's position in the firewall's pending set, -1
	// while it is not pending.
	idx int

	// kindTimer: absolute due time in the underlying simulator, valid
	// while armed; remaining is captured on engage.
	remaining sim.Time

	// kindCompute:
	cpu       *node.CPU
	workLeft  sim.Time
	startedAt sim.Time
}

// Class reports the handle's activity class.
func (h *Handle) Class() Class { return h.class }

// Done reports whether the callback has fired.
func (h *Handle) Done() bool { return h.done }

// Firewall is the per-guest temporal firewall.
type Firewall struct {
	s     *sim.Simulator
	clock *vclock.Clock

	engaged bool
	// pending holds every armed or parked handle. It is a slice, not a
	// map keyed by pointer: Engage, Disengage and Replan re-arm in its
	// order, and same-instant re-arms fire in that order, so it must be
	// the same on every run. Removal swaps the last handle into the hole.
	pending []*Handle
	// free holds idle pooled handles for Do, bounded by the peak number
	// of Do activities pending at once.
	free []*Handle

	// InsideFired counts inside-class callbacks that fired while the
	// firewall was engaged. Transparency demands this stays zero; tests
	// assert on it.
	InsideFired int
	// OutsideFired counts outside-class callbacks fired while engaged —
	// the checkpoint's own activity.
	OutsideFired int
	// Engages counts engage/disengage cycles.
	Engages int
}

// New creates a firewall around the given guest clock.
func New(s *sim.Simulator, clock *vclock.Clock) *Firewall {
	return &Firewall{s: s, clock: clock}
}

// Clock exposes the guarded clock.
func (f *Firewall) Clock() *vclock.Clock { return f.clock }

// Engaged reports whether the firewall is currently engaged.
func (f *Firewall) Engaged() bool { return f.engaged }

// Pending reports the number of suspended-or-armed handles.
func (f *Firewall) Pending() int { return len(f.pending) }

// After schedules fn to run after d of guest virtual time. The
// underlying event is armed at the real-time equivalent (scaled by the
// clock's dilation factor); engage/disengage moves it so the *virtual*
// delay is preserved exactly.
func (f *Firewall) After(class Class, d sim.Time, name string, fn func()) *Handle {
	h := f.NewTimer(class, name, fn)
	h.Start(d)
	return h
}

// Do schedules fn like After but returns no handle, so nothing can
// cancel it. The handle comes from the firewall's free list and goes
// back on it when it fires, so a steady fire-and-forget caller (guest
// sleeps, block completions) allocates nothing. Like After, it consumes
// one event sequence number.
func (f *Firewall) Do(class Class, d sim.Time, name string, fn func()) {
	var h *Handle
	if n := len(f.free); n > 0 {
		h = f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		h.class, h.fn = class, fn
		h.tm.SetName(name)
	} else {
		h = f.NewTimer(class, name, fn)
		h.pooled = true
	}
	h.Start(d)
}

// Compute schedules fn to run after `work` nanoseconds of guest CPU work
// on cpu, accounting for dom0 contention. Engage captures remaining
// work; disengage re-plans it.
func (f *Firewall) Compute(class Class, cpu *node.CPU, work sim.Time, name string, fn func()) *Handle {
	h := f.NewCompute(class, cpu, name, fn)
	h.Start(work)
	return h
}

// NewTimer returns an idle handle that, once started with Start(d),
// runs fn after d of guest virtual time, like After. A serial owner
// that arms one activity over and over (a packet pump, a
// retransmission timer) keeps one handle for its lifetime instead of
// allocating a handle per arm.
func (f *Firewall) NewTimer(class Class, name string, fn func()) *Handle {
	h := &Handle{fw: f, class: class, name: name, k: kindTimer, fn: fn, idx: -1}
	f.s.InitTimer(&h.tm, name, h.fire)
	return h
}

// NewCompute returns an idle handle that, once started with
// Start(work), runs fn after work of guest CPU time on cpu, like
// Compute.
func (f *Firewall) NewCompute(class Class, cpu *node.CPU, name string, fn func()) *Handle {
	h := &Handle{fw: f, class: class, name: name, k: kindCompute, fn: fn, cpu: cpu, idx: -1}
	f.s.InitTimer(&h.tm, name, h.fire)
	return h
}

// Start arms an idle handle: a timer handle fires after d of guest
// virtual time, a compute handle after d of CPU work. It consumes one
// event sequence number, exactly like After or Compute. An inside
// handle started while the firewall is engaged (e.g. a device handler
// queuing guest work) parks with its full delay or work. A handle is
// idle before its first Start and again once it has fired or been
// cancelled; starting a live handle is a programming error and panics.
func (h *Handle) Start(d sim.Time) {
	if h.idx >= 0 {
		panic("firewall: Start of live handle " + h.name)
	}
	if d < 0 {
		d = 0
	}
	f := h.fw
	h.done = false
	f.add(h)
	parked := f.engaged && h.class.Inside()
	switch {
	case h.k == kindCompute:
		h.workLeft = d
		if !parked {
			h.armCompute()
		}
	case parked:
		h.remaining = d
	default:
		h.arm(d)
	}
}

// Stop cancels a live handle; it is a no-op on an idle one. The handle
// may be started again.
func (h *Handle) Stop() { h.fw.Cancel(h) }

// arm schedules the underlying event d of *virtual* time from now.
func (h *Handle) arm(d sim.Time) {
	h.tm.Reset(h.fw.clock.ToReal(d))
}

func (h *Handle) armCompute() {
	h.startedAt = h.fw.s.Now()
	end := h.cpu.FinishTime(h.startedAt, h.workLeft)
	if end == sim.Never {
		// CPU indefinitely stalled; leave unarmed — Replan re-arms when
		// the contention picture changes.
		return
	}
	h.tm.Schedule(end)
}

func (h *Handle) fire() {
	if h.fw.engaged {
		if h.class.Inside() {
			h.fw.InsideFired++
		} else {
			h.fw.OutsideFired++
		}
	}
	h.done = true
	h.fw.remove(h)
	fn := h.fn
	if h.pooled {
		// Recycle before running fn, so a callback that sleeps again
		// reuses this very handle.
		h.fn = nil
		h.fw.free = append(h.fw.free, h)
	}
	fn()
}

// Cancel prevents the handle from firing.
func (f *Firewall) Cancel(h *Handle) {
	if h == nil || h.idx < 0 {
		return
	}
	h.tm.Stop()
	h.done = true
	f.remove(h)
}

// add appends h to the pending set.
func (f *Firewall) add(h *Handle) {
	h.idx = len(f.pending)
	f.pending = append(f.pending, h)
}

// remove takes h out of the pending set by moving the last handle into
// its slot.
func (f *Firewall) remove(h *Handle) {
	n := len(f.pending) - 1
	last := f.pending[n]
	f.pending[h.idx] = last
	last.idx = h.idx
	f.pending[n] = nil
	f.pending = f.pending[:n]
	h.idx = -1
}

// Engage freezes the clock and suspends every pending inside-handle.
// engageLeak is the virtual-time cost of the engage path (see vclock).
func (f *Firewall) Engage(engageLeak sim.Time) {
	if f.engaged {
		panic("firewall: double engage")
	}
	f.engaged = true
	f.Engages++
	f.clock.Freeze(engageLeak)
	now := f.s.Now()
	for _, h := range f.pending {
		if !h.class.Inside() || !h.tm.Pending() {
			continue
		}
		switch h.k {
		case kindTimer:
			// Preserve the remaining delay in virtual units.
			h.remaining = f.clock.ToVirtual(h.tm.When() - now)
			if h.remaining < 0 {
				h.remaining = 0
			}
		case kindCompute:
			progressed := h.cpu.Progress(h.startedAt, now)
			h.workLeft -= progressed
			if h.workLeft < 0 {
				h.workLeft = 0
			}
		}
		h.tm.Stop()
	}
}

// Disengage thaws the clock and re-arms every suspended inside-handle
// with its preserved remaining time or work.
func (f *Firewall) Disengage(disengageLeak sim.Time) {
	if !f.engaged {
		panic("firewall: disengage while not engaged")
	}
	f.engaged = false
	f.clock.Thaw(disengageLeak)
	for _, h := range f.pending {
		if !h.class.Inside() || h.tm.Pending() {
			continue
		}
		switch h.k {
		case kindTimer:
			h.arm(h.remaining)
		case kindCompute:
			h.armCompute()
		}
	}
}

// Replan re-computes completion times for armed compute handles. The
// hypervisor calls this after registering new dom0 CPU interference so
// in-progress guest bursts feel it (Fig. 5's residual checkpoint
// activity).
func (f *Firewall) Replan() {
	if f.engaged {
		return // everything inside is parked already
	}
	now := f.s.Now()
	for _, h := range f.pending {
		if h.k != kindCompute {
			continue
		}
		if h.tm.Pending() {
			progressed := h.cpu.Progress(h.startedAt, now)
			h.workLeft -= progressed
			if h.workLeft < 0 {
				h.workLeft = 0
			}
			h.tm.Stop()
		}
		h.armCompute()
	}
}

// Describe returns a debug summary of pending activity by class.
func (f *Firewall) Describe() string {
	counts := map[Class]int{}
	for _, h := range f.pending {
		counts[h.class]++
	}
	return fmt.Sprintf("firewall engaged=%v pending=%v", f.engaged, counts)
}
