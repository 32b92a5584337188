// Package vclock implements guest time virtualization (paper §4.2).
//
// A paravirtualized guest keeps time from three sources the hypervisor
// exposes: wall-clock time and system-time-since-boot in a shared memory
// page, and the hardware time-stamp counter (TSC) used to interpolate
// between page updates. To conceal a checkpoint, all three are
// virtualized: during a checkpoint the shared page stops updating, TSC
// access is gated, jiffies/xtime stop, POSIX timers stop, and the
// hypervisor's runstate statistics stop accumulating. From inside the
// guest, time simply does not pass.
//
// The only imperfection is the engage/disengage path itself, which runs
// while time still flows; the paper measures this leak at ~80 µs
// (Fig. 4 inset). Freeze/Thaw accept an explicit leak so the calibrated
// imperfection is part of the model rather than hidden in it.
package vclock

import (
	"fmt"

	"emucheck/internal/sim"
)

// TSCHz is the simulated time-stamp counter frequency (3.0 GHz Xeon).
const TSCHz = 3_000_000_000

// RunstateKind is one of the four hypervisor-visible guest states the
// paper lists in §4.2.
type RunstateKind int

// Runstate kinds.
const (
	Running RunstateKind = iota
	Runnable
	Blocked
	Offline
)

func (k RunstateKind) String() string {
	switch k {
	case Running:
		return "running"
	case Runnable:
		return "runnable"
	case Blocked:
		return "blocked"
	default:
		return "offline"
	}
}

// Runstate accumulates time spent in each state.
type Runstate struct {
	Time [4]sim.Time
}

// Clock is one guest's virtualized time source.
type Clock struct {
	s *sim.Simulator

	// Anchor-based mapping from real to virtual time: while running,
	// virtual = anchorVirtual + (real - anchorReal) / dilation. The
	// anchor moves at every thaw (absorbing the freeze) and at every
	// dilation change.
	anchorReal    sim.Time
	anchorVirtual sim.Time

	// dilation is the time-dilation factor (Gupta 2006, cited in §8;
	// proposed as a replay perturbation in §6): virtual time advances
	// at 1/dilation of real time, making the machine appear
	// dilation-times faster to the guest. 1 = realtime.
	dilation float64

	// wallEpoch is the guest's wall-clock at virtual time zero.
	wallEpoch sim.Time

	frozen    bool
	frozenAt  sim.Time // virtual value held while frozen
	freezeRef sim.Time // real time of freeze

	// leakTotal accumulates virtual time that escaped across
	// checkpoints — the measured transparency imperfection.
	leakTotal sim.Time
	freezes   int

	state       RunstateKind
	stateSince  sim.Time // real time of last transition
	runstate    Runstate
	acctFrozen  bool
	tscReads    uint64
	tscGateHits uint64
}

// New creates a clock for a guest booted at the current simulation time
// with the given wall-clock epoch.
func New(s *sim.Simulator, wallEpoch sim.Time) *Clock {
	return &Clock{s: s, anchorReal: s.Now(), wallEpoch: wallEpoch, dilation: 1, stateSince: s.Now()}
}

// SystemTime reports guest nanoseconds since boot (virtual domain).
func (c *Clock) SystemTime() sim.Time {
	if c.frozen {
		return c.frozenAt
	}
	return c.anchorVirtual + c.ToVirtual(c.s.Now()-c.anchorReal)
}

// WallClock reports the guest's wall-clock time.
func (c *Clock) WallClock() sim.Time { return c.wallEpoch + c.SystemTime() }

// Gettimeofday is WallClock truncated to microsecond resolution, the
// precision user code observes (Fig. 4's measurement path).
func (c *Clock) Gettimeofday() sim.Time {
	w := c.WallClock()
	return w - w%sim.Microsecond
}

// ReadTSC reports the virtualized time-stamp counter. During a
// checkpoint the guest's access to the hardware TSC is restricted
// (§4.2); reads return the frozen value and are counted.
func (c *Clock) ReadTSC() uint64 {
	c.tscReads++
	if c.frozen {
		c.tscGateHits++
	}
	return uint64(c.SystemTime()) * (TSCHz / 1_000_000_000)
}

// Frozen reports whether time is suspended.
func (c *Clock) Frozen() bool { return c.frozen }

// Freeze suspends all guest time sources. engageLeak is the virtual time
// that elapses on the engage path before time actually stops — it is
// added to the frozen value, modelling the imperfect atomicity the paper
// measures. Freezing a frozen clock panics: the firewall must serialize
// checkpoints.
func (c *Clock) Freeze(engageLeak sim.Time) {
	if c.frozen {
		panic("vclock: double freeze")
	}
	if engageLeak < 0 {
		engageLeak = 0
	}
	c.frozen = true
	c.freezeRef = c.s.Now()
	c.frozenAt = c.anchorVirtual + c.ToVirtual(c.s.Now()-c.anchorReal) + engageLeak
	c.leakTotal += engageLeak
	c.freezes++
	c.accountTo(c.s.Now())
	c.acctFrozen = true
}

// Thaw resumes time. disengageLeak models the disengage-path latency,
// which also shows up as virtual time.
func (c *Clock) Thaw(disengageLeak sim.Time) {
	if !c.frozen {
		panic("vclock: thaw of running clock")
	}
	if disengageLeak < 0 {
		disengageLeak = 0
	}
	c.frozen = false
	c.leakTotal += disengageLeak
	// After thaw: virtual(now) must equal frozenAt + disengageLeak.
	c.anchorReal = c.s.Now()
	c.anchorVirtual = c.frozenAt + disengageLeak
	c.acctFrozen = false
	c.stateSince = c.s.Now()
}

// Dilation reports the current time-dilation factor.
func (c *Clock) Dilation() float64 { return c.dilation }

// SetDilation changes the time-dilation factor. Virtual time remains
// continuous: the anchor moves to the current instant. Factors < 1
// speed virtual time up; factors > 1 slow it down (the guest perceives
// a faster machine and network). Non-positive factors panic.
func (c *Clock) SetDilation(f float64) {
	if f <= 0 {
		panic("vclock: non-positive dilation")
	}
	if c.frozen {
		c.dilation = f
		return
	}
	c.anchorVirtual = c.SystemTime()
	c.anchorReal = c.s.Now()
	c.dilation = f
}

// ToReal converts a virtual duration into the real duration it takes at
// the current dilation; the firewall uses it to arm virtual timers.
func (c *Clock) ToReal(d sim.Time) sim.Time {
	if c.dilation == 1 {
		return d
	}
	return sim.Time(float64(d) * c.dilation)
}

// ToVirtual converts a real duration into virtual time units. At
// dilation 1 it skips the float divide, which agrees exactly with it
// below 2^53 ns (104 days).
func (c *Clock) ToVirtual(d sim.Time) sim.Time {
	if c.dilation == 1 {
		return d
	}
	return sim.Time(float64(d) / c.dilation)
}

// LeakTotal reports the accumulated transparency leak.
func (c *Clock) LeakTotal() sim.Time { return c.leakTotal }

// Freezes reports how many checkpoints this clock has absorbed.
func (c *Clock) Freezes() int { return c.freezes }

// TSCGateHits reports TSC reads served while gated.
func (c *Clock) TSCGateHits() uint64 { return c.tscGateHits }

func (c *Clock) accountTo(t sim.Time) {
	if c.acctFrozen {
		return
	}
	c.runstate.Time[c.state] += t - c.stateSince
	c.stateSince = t
}

// SetRunstate records a guest state transition. Accounting is suspended
// while frozen (§4.2: "we modify the hypervisor to suspend accounting of
// state changes during a checkpoint").
func (c *Clock) SetRunstate(k RunstateKind) {
	c.accountTo(c.s.Now())
	c.state = k
}

// RunstateSnapshot reports the accumulated per-state times.
func (c *Clock) RunstateSnapshot() Runstate {
	c.accountTo(c.s.Now())
	return c.runstate
}

// State is the serialized clock, stored in a checkpoint image.
type State struct {
	VirtualNow sim.Time
	WallEpoch  sim.Time
	Runstate   Runstate
	Freezes    int
	LeakTotal  sim.Time
}

// Serialize captures the clock; it must be frozen, like every piece of
// state the checkpoint walks.
func (c *Clock) Serialize() (*State, error) {
	if !c.frozen {
		return nil, fmt.Errorf("vclock: serialize of running clock")
	}
	return &State{
		VirtualNow: c.frozenAt,
		WallEpoch:  c.wallEpoch,
		Runstate:   c.runstate,
		Freezes:    c.freezes,
		LeakTotal:  c.leakTotal,
	}, nil
}

// Restore reconstitutes a clock from a checkpoint image; the clock comes
// back frozen at the captured instant and resumes on Thaw.
func Restore(s *sim.Simulator, st *State) *Clock {
	c := &Clock{
		s:          s,
		wallEpoch:  st.WallEpoch,
		frozen:     true,
		frozenAt:   st.VirtualNow,
		freezeRef:  s.Now(),
		dilation:   1,
		runstate:   st.Runstate,
		freezes:    st.Freezes,
		leakTotal:  st.LeakTotal,
		acctFrozen: true,
		stateSince: s.Now(),
	}
	return c
}
