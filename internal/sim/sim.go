// Package sim implements the deterministic discrete-event simulation
// kernel that underlies the whole testbed model.
//
// Everything in this repository — nodes, guest kernels, networks, disks,
// the checkpoint machinery — advances by scheduling events on a single
// Simulator. Time is virtual, measured in integer nanoseconds, and the
// event order is fully deterministic: ties on the timestamp are broken by
// insertion sequence, and all randomness flows from one seeded source.
// Running the same experiment twice therefore yields bit-identical
// results, which is what makes the paper's transparency claims testable.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of
// the simulation. It is the "real" (physical-testbed) time domain; guest
// virtual time is layered on top by package vclock.
type Time int64

// Common durations, mirroring time.Duration semantics but kept as plain
// Time values so arithmetic needs no conversions.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// Never is a sentinel timestamp later than any reachable simulation time.
const Never Time = 1<<63 - 1

// Duration converts t to a time.Duration for formatting.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t in floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t in floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t in floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback. Events are single-shot; rescheduling
// creates a new Event. A cancelled event never fires.
type Event struct {
	when      Time
	seq       uint64
	fn        func()
	index     int // heap index, -1 when not queued
	cancelled bool
	// pooled marks an event scheduled through DoAt/DoAfter: no handle
	// escaped, so the simulator may recycle it through the free list the
	// moment it is popped.
	pooled bool
	name   string
}

// When reports the time the event is scheduled to fire.
func (e *Event) When() Time { return e.when }

// Cancelled reports whether Cancel was called before the event fired.
func (e *Event) Cancelled() bool { return e.cancelled }

// Name reports the debug label given at scheduling time.
func (e *Event) Name() string { return e.name }

// Simulator is the event loop. It is not safe for concurrent use; all
// model code runs on the simulator's single logical thread, which is
// faithful to the synchronous nature of the systems being modelled.
type Simulator struct {
	now     Time
	queue   eventHeap
	seq     uint64
	rng     *rand.Rand
	stopped bool
	// fired counts delivered events, for diagnostics and test assertions.
	fired uint64
	// digest folds every delivered event's (when, seq); see
	// ScheduleDigest.
	digest uint64
	// free is the recycled-Event pool feeding DoAt/DoAfter. Only events
	// whose *Event handle never escaped (pooled) land here, so a stale
	// handle can never cancel a recycled event. Bounded by the peak
	// number of simultaneously queued fire-and-forget events.
	free []*Event
}

// New creates a Simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed)), digest: digestBasis}
}

// FNV-1a parameters for the schedule digest.
const (
	digestBasis uint64 = 0xcbf29ce484222325
	digestPrime uint64 = 0x100000001b3
)

// Now reports the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Rand exposes the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Fired reports the number of events delivered so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// ScheduleDigest is a hash of the (when, seq) pair of every event
// delivered so far, in delivery order. Two runs with equal digests
// fired the same events in the same order with the same tie-breaks, a
// stricter check than any rounded report: a same-instant reordering
// that leaves every statistic unchanged still moves the digest.
func (s *Simulator) ScheduleDigest() uint64 { return s.digest }

// Pending reports the number of events currently queued.
func (s *Simulator) Pending() int { return s.queue.len() }

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics: the models must never violate causality.
func (s *Simulator) At(t Time, name string, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, t, s.now))
	}
	s.seq++
	e := &Event{when: t, seq: s.seq, fn: fn, name: name}
	s.queue.push(e)
	return e
}

// After schedules fn to run d nanoseconds from now. Negative d is clamped
// to zero so jittered delays can never go backwards.
func (s *Simulator) After(d Time, name string, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, name, fn)
}

// DoAt schedules fn at absolute time t without returning a handle. The
// event comes from the simulator's free list and is recycled the moment
// it fires, so steady-state fire-and-forget scheduling — the vast
// majority of model events: activity ticks, transfer completions,
// protocol timeouts that are never cancelled — allocates nothing.
// Because no handle escapes, no caller can cancel a recycled event
// through a stale pointer, which is the hazard that keeps At's events
// out of the pool. Scheduling in the past panics, like At.
func (s *Simulator) DoAt(t Time, name string, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, t, s.now))
	}
	s.seq++
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{}
	}
	*e = Event{when: t, seq: s.seq, fn: fn, name: name, pooled: true}
	s.queue.push(e)
}

// DoAfter schedules fn to run d from now, handle-free and pooled like
// DoAt. Negative d is clamped to zero, mirroring After.
func (s *Simulator) DoAfter(d Time, name string, fn func()) {
	if d < 0 {
		d = 0
	}
	s.DoAt(s.now+d, name, fn)
}

// release returns a popped pooled event to the free list, dropping its
// closure so the pool never pins model objects.
func (s *Simulator) release(e *Event) {
	e.fn = nil
	e.name = ""
	s.free = append(s.free, e)
}

// Cancel removes the event from the queue if it has not fired.
// It is safe to cancel an already-fired or already-cancelled event.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.cancelled || e.index < 0 {
		if e != nil {
			e.cancelled = true
		}
		return
	}
	e.cancelled = true
	s.queue.remove(e.index)
}

// Reschedule moves a pending event to a new absolute time, preserving its
// callback. If the event already fired or was cancelled it panics, since
// callers must only reschedule live events.
func (s *Simulator) Reschedule(e *Event, t Time) {
	if e.cancelled || e.index < 0 {
		panic("sim: reschedule of dead event " + e.name)
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: reschedule of %q to %v before now %v", e.name, t, s.now))
	}
	e.when = t
	s.seq++
	e.seq = s.seq
	s.queue.fix(e.index)
}

// Timer is a reusable one-shot alarm: one Event allocation serves the
// timer's whole lifetime, however many times it is re-armed. Periodic
// and repeatedly re-armed callers (scheduler wake-ups, workload tick
// loops) otherwise allocate a fresh Event per arm — at 10k-tenant
// fleet scale that is millions of allocations of pure churn. A Timer
// is single-owner: only code holding the Timer can cancel it, which
// sidesteps the stale-pointer hazard a general Event free-list would
// have (a recycled Event cancelled through an old handle). DoAt/DoAfter
// close the remaining gap from the other side: events whose handle
// never escapes are recycled through the simulator's free list.
type Timer struct {
	s *Simulator
	e Event
}

// NewTimer creates an unarmed timer that runs fn when it fires. The
// callback is fixed for the timer's lifetime; arm it with Schedule or
// Reset.
func (s *Simulator) NewTimer(name string, fn func()) *Timer {
	t := &Timer{}
	s.InitTimer(t, name, fn)
	return t
}

// InitTimer initializes t in place as an unarmed timer — NewTimer
// without the allocation, for callers that embed a Timer by value
// inside a larger hot-path object (e.g. the temporal firewall's
// per-activity handles) so handle and event are one allocation.
func (s *Simulator) InitTimer(t *Timer, name string, fn func()) {
	t.s = s
	t.e = Event{fn: fn, name: name, index: -1}
}

// SetName relabels an unarmed timer, for an owner that recycles one
// timer across activities with different labels.
func (t *Timer) SetName(name string) { t.e.name = name }

// Pending reports whether the timer is armed and has not yet fired.
func (t *Timer) Pending() bool { return t.e.index >= 0 }

// When reports the pending fire time (meaningless unless Pending).
func (t *Timer) When() Time { return t.e.when }

// Schedule arms the timer to fire at absolute time at, rescheduling in
// place if it is already pending. Like At, arming in the past panics.
func (t *Timer) Schedule(at Time) {
	e := &t.e
	if e.index >= 0 {
		t.s.Reschedule(e, at)
		return
	}
	if at < t.s.now {
		panic(fmt.Sprintf("sim: timer %q scheduled at %v before now %v", e.name, at, t.s.now))
	}
	e.cancelled = false
	t.s.seq++
	e.seq = t.s.seq
	e.when = at
	t.s.queue.push(e)
}

// Reset arms the timer to fire d from now (negative d is clamped to
// zero, mirroring After).
func (t *Timer) Reset(d Time) {
	if d < 0 {
		d = 0
	}
	t.Schedule(t.s.now + d)
}

// Stop disarms a pending timer; it is a no-op if the timer already
// fired or was never armed. The timer can be re-armed afterwards.
func (t *Timer) Stop() {
	if t.e.index >= 0 {
		t.s.Cancel(&t.e)
	}
}

// Stop makes Run return after the current event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Step delivers the single next event, if any, and reports whether one
// was delivered.
func (s *Simulator) Step() bool {
	for s.queue.len() > 0 {
		e := s.queue.pop()
		if e.cancelled {
			if e.pooled {
				s.release(e)
			}
			continue
		}
		s.now = e.when
		s.fired++
		s.digest = (s.digest ^ uint64(e.when)) * digestPrime
		s.digest = (s.digest ^ e.seq) * digestPrime
		fn := e.fn
		if e.pooled {
			// Recycle before running fn: the callback may immediately
			// DoAt a follow-up, which then reuses this very Event.
			s.release(e)
		}
		fn()
		return true
	}
	return false
}

// Run delivers events until the queue is empty or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil delivers events with timestamps <= t, then sets the clock to t.
// Events scheduled exactly at t are delivered.
func (s *Simulator) RunUntil(t Time) {
	s.stopped = false
	for !s.stopped && s.queue.len() > 0 && s.queue.peek().when <= t {
		if !s.Step() {
			break
		}
	}
	if !s.stopped && s.now < t {
		s.now = t
	}
}

// RunFor advances the simulation by d.
func (s *Simulator) RunFor(d Time) { s.RunUntil(s.now + d) }

// Jitter returns a uniformly distributed duration in [0, max).
func (s *Simulator) Jitter(max Time) Time {
	if max <= 0 {
		return 0
	}
	return Time(s.rng.Int63n(int64(max)))
}

// Normal returns a normally distributed duration with the given mean and
// standard deviation, truncated at zero.
func (s *Simulator) Normal(mean, stddev Time) Time {
	v := float64(mean) + s.rng.NormFloat64()*float64(stddev)
	if v < 0 {
		return 0
	}
	return Time(v)
}

// Uniform returns a uniformly distributed duration in [lo, hi).
func (s *Simulator) Uniform(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(s.rng.Int63n(int64(hi-lo)))
}

// Mix64 folds the given values through a SplitMix64 finalizer chain and
// returns the mixed word. It is the deterministic seed-derivation
// primitive for anything that must vary arithmetically with a seed and
// an index without consuming any RNG stream: workload parameter draws,
// generated-scenario axes, per-app vote schedules. Same inputs, same
// output, on any platform.
func Mix64(vs ...int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= uint64(v)
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
