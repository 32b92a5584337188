package firewall

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"

	"emucheck/internal/node"
	"emucheck/internal/sim"
	"emucheck/internal/vclock"
)

func setup(seed int64) (*sim.Simulator, *vclock.Clock, *Firewall) {
	s := sim.New(seed)
	c := vclock.New(s, 0)
	return s, c, New(s, c)
}

func TestTimerFiresNormally(t *testing.T) {
	s, _, f := setup(1)
	var at sim.Time
	f.After(TimerJob, 10*sim.Millisecond, "t", func() { at = s.Now() })
	s.Run()
	if at != 10*sim.Millisecond {
		t.Fatalf("fired at %v", at)
	}
	if f.Pending() != 0 {
		t.Fatal("pending not cleared")
	}
}

func TestEngageSuspendsInsideTimers(t *testing.T) {
	s, c, f := setup(1)
	var firedVirtual sim.Time
	f.After(TimerJob, 10*sim.Millisecond, "t", func() { firedVirtual = c.SystemTime() })
	s.RunFor(4 * sim.Millisecond)
	f.Engage(0)
	s.RunFor(100 * sim.Millisecond) // long checkpoint
	if firedVirtual != 0 {
		t.Fatal("timer fired during engage")
	}
	f.Disengage(0)
	s.Run()
	// Virtual delay must be exactly 10 ms despite the 100 ms freeze.
	if firedVirtual != 10*sim.Millisecond {
		t.Fatalf("virtual fire time = %v, want 10ms", firedVirtual)
	}
	if f.InsideFired != 0 {
		t.Fatalf("inside activity during checkpoint: %d", f.InsideFired)
	}
}

func TestOutsideClassRunsDuringEngage(t *testing.T) {
	s, _, f := setup(1)
	fired := false
	f.Engage(0)
	f.After(XenBus, sim.Millisecond, "xb", func() { fired = true })
	s.RunFor(10 * sim.Millisecond)
	if !fired {
		t.Fatal("xenbus handler suppressed by firewall")
	}
	if f.OutsideFired != 1 {
		t.Fatalf("outside fired = %d", f.OutsideFired)
	}
	f.Disengage(0)
}

func TestInsideScheduledWhileEngagedParks(t *testing.T) {
	s, c, f := setup(1)
	var firedVirtual sim.Time = -1
	f.Engage(0)
	// Outside code (e.g. a device driver) queues inside work mid-ckpt.
	f.After(SoftIRQ, 5*sim.Millisecond, "si", func() { firedVirtual = c.SystemTime() })
	s.RunFor(50 * sim.Millisecond)
	if firedVirtual != -1 {
		t.Fatal("inside work ran while engaged")
	}
	f.Disengage(0)
	s.Run()
	if firedVirtual != 5*sim.Millisecond {
		t.Fatalf("virtual fire = %v, want 5ms", firedVirtual)
	}
}

func TestComputeNoContention(t *testing.T) {
	s, _, f := setup(1)
	cpu := node.NewCPU(s)
	var at sim.Time
	f.Compute(UserThread, cpu, 200*sim.Millisecond, "job", func() { at = s.Now() })
	s.Run()
	if at != 200*sim.Millisecond {
		t.Fatalf("compute finished at %v", at)
	}
}

func TestComputeAcrossEngagePreservesWork(t *testing.T) {
	s, c, f := setup(1)
	cpu := node.NewCPU(s)
	var virt sim.Time
	f.Compute(UserThread, cpu, 100*sim.Millisecond, "job", func() { virt = c.SystemTime() })
	s.RunFor(30 * sim.Millisecond)
	f.Engage(0)
	s.RunFor(500 * sim.Millisecond)
	f.Disengage(0)
	s.Run()
	if virt != 100*sim.Millisecond {
		t.Fatalf("virtual completion = %v, want 100ms", virt)
	}
}

func TestComputeFeelsDom0Steal(t *testing.T) {
	s, _, f := setup(1)
	cpu := node.NewCPU(s)
	var at sim.Time
	// Register interference before the burst: 20 ms fully stolen.
	cpu.Steal(10*sim.Millisecond, 20*sim.Millisecond, 1.0)
	f.Compute(UserThread, cpu, 100*sim.Millisecond, "job", func() { at = s.Now() })
	s.Run()
	if at != 120*sim.Millisecond {
		t.Fatalf("finished at %v, want 120ms", at)
	}
}

func TestReplanAppliesLateInterference(t *testing.T) {
	s, _, f := setup(1)
	cpu := node.NewCPU(s)
	var at sim.Time
	f.Compute(UserThread, cpu, 100*sim.Millisecond, "job", func() { at = s.Now() })
	s.RunFor(50 * sim.Millisecond)
	// dom0 work arrives mid-burst: without Replan the completion event
	// would be stale.
	cpu.Steal(s.Now(), 10*sim.Millisecond, 1.0)
	f.Replan()
	s.Run()
	if at != 110*sim.Millisecond {
		t.Fatalf("finished at %v, want 110ms", at)
	}
}

func TestCancel(t *testing.T) {
	s, _, f := setup(1)
	fired := false
	h := f.After(TimerJob, sim.Millisecond, "t", func() { fired = true })
	f.Cancel(h)
	s.Run()
	if fired || f.Pending() != 0 {
		t.Fatal("cancel failed")
	}
	f.Cancel(h) // idempotent
	f.Cancel(nil)
}

func TestCancelSuspendedHandle(t *testing.T) {
	s, _, f := setup(1)
	fired := false
	h := f.After(TimerJob, sim.Millisecond, "t", func() { fired = true })
	f.Engage(0)
	f.Cancel(h)
	f.Disengage(0)
	s.Run()
	if fired {
		t.Fatal("cancelled suspended handle fired")
	}
}

func TestDoubleEngagePanics(t *testing.T) {
	_, _, f := setup(1)
	f.Engage(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.Engage(0)
}

func TestDisengageIdlePanics(t *testing.T) {
	_, _, f := setup(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.Disengage(0)
}

func TestRepeatedCheckpointCycles(t *testing.T) {
	s, c, f := setup(1)
	// A periodic 10 ms virtual timer, checkpointed every cycle.
	var ticks []sim.Time
	var tick func()
	tick = func() {
		ticks = append(ticks, c.SystemTime())
		if len(ticks) < 10 {
			f.After(TimerJob, 10*sim.Millisecond, "tick", tick)
		}
	}
	f.After(TimerJob, 10*sim.Millisecond, "tick", tick)
	for i := 0; i < 10; i++ {
		s.RunFor(7 * sim.Millisecond)
		f.Engage(0)
		s.RunFor(55 * sim.Millisecond) // checkpoint
		f.Disengage(0)
	}
	s.Run()
	if len(ticks) != 10 {
		t.Fatalf("ticks = %d", len(ticks))
	}
	for i, ti := range ticks {
		want := sim.Time(i+1) * 10 * sim.Millisecond
		if ti != want {
			t.Fatalf("tick %d at virtual %v, want %v", i, ti, want)
		}
	}
	if f.InsideFired != 0 {
		t.Fatal("inside activity leaked into checkpoints")
	}
}

// Property: for any engage point within the timer's life and any freeze
// length, the observed *virtual* delay of a timer equals the requested
// delay exactly (with zero leak).
func TestPropertyVirtualDelayExact(t *testing.T) {
	f := func(delayMs, engageAtMs, freezeMs uint8) bool {
		d := sim.Time(delayMs%50+1) * sim.Millisecond
		at := sim.Time(engageAtMs) * sim.Millisecond % d
		s := sim.New(7)
		c := vclock.New(s, 0)
		fw := New(s, c)
		var virt sim.Time = -1
		fw.After(TimerJob, d, "t", func() { virt = c.SystemTime() })
		s.RunFor(at)
		fw.Engage(0)
		s.RunFor(sim.Time(freezeMs) * sim.Millisecond)
		fw.Disengage(0)
		s.Run()
		return virt == d && fw.InsideFired == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: compute work is conserved across any checkpoint placement —
// real completion = work + freeze duration when there is no contention.
func TestPropertyComputeConservation(t *testing.T) {
	f := func(workMs, engageAtMs, freezeMs uint8) bool {
		work := sim.Time(workMs%80+1) * sim.Millisecond
		at := sim.Time(engageAtMs) * sim.Millisecond % work
		s := sim.New(8)
		c := vclock.New(s, 0)
		fw := New(s, c)
		cpu := node.NewCPU(s)
		var real sim.Time = -1
		fw.Compute(UserThread, cpu, work, "job", func() { real = s.Now() })
		s.RunFor(at)
		fw.Engage(0)
		freeze := sim.Time(freezeMs) * sim.Millisecond
		s.RunFor(freeze)
		fw.Disengage(0)
		s.Run()
		return real == work+freeze
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerHonorsDilation(t *testing.T) {
	s, c, f := setup(1)
	c.SetDilation(3)
	var realAt sim.Time
	var virtAt sim.Time
	f.After(TimerJob, 10*sim.Millisecond, "t", func() {
		realAt, virtAt = s.Now(), c.SystemTime()
	})
	s.Run()
	if realAt != 30*sim.Millisecond {
		t.Fatalf("fired at real %v, want 30ms under 3x dilation", realAt)
	}
	if virtAt != 10*sim.Millisecond {
		t.Fatalf("fired at virtual %v, want 10ms", virtAt)
	}
}

func TestDilatedTimerAcrossCheckpoint(t *testing.T) {
	s, c, f := setup(1)
	c.SetDilation(2)
	var virtAt sim.Time = -1
	f.After(TimerJob, 20*sim.Millisecond, "t", func() { virtAt = c.SystemTime() })
	s.RunFor(10 * sim.Millisecond) // 5 ms virtual elapsed
	f.Engage(0)
	s.RunFor(100 * sim.Millisecond)
	f.Disengage(0)
	s.Run()
	if virtAt != 20*sim.Millisecond {
		t.Fatalf("virtual fire = %v, want exactly 20ms", virtAt)
	}
}

func TestClassTaxonomy(t *testing.T) {
	inside := []Class{UserThread, KernelThread, SoftIRQ, TimerJob, DeviceIRQ}
	outside := []Class{SuspendThread, XenBus, BlockDrainIRQ, PageFault}
	for _, c := range inside {
		if !c.Inside() {
			t.Fatalf("%v should be inside the firewall", c)
		}
		if c.String() == "" {
			t.Fatal("empty class name")
		}
	}
	for _, c := range outside {
		if c.Inside() {
			t.Fatalf("%v should run outside the firewall", c)
		}
		if c.String() == "" {
			t.Fatal("empty class name")
		}
	}
}

func TestDescribe(t *testing.T) {
	s, _, f := setup(1)
	f.After(TimerJob, sim.Second, "t", func() {})
	f.After(UserThread, sim.Second, "u", func() {})
	if d := f.Describe(); d == "" {
		t.Fatal("empty describe")
	}
	_ = s
}

func TestEngagesCounter(t *testing.T) {
	_, _, f := setup(1)
	for i := 0; i < 3; i++ {
		f.Engage(0)
		f.Disengage(0)
	}
	if f.Engages != 3 {
		t.Fatalf("engages = %d", f.Engages)
	}
}

func TestHandleDoneFlag(t *testing.T) {
	s, _, f := setup(1)
	h := f.After(TimerJob, sim.Millisecond, "t", func() {})
	if h.Done() {
		t.Fatal("premature done")
	}
	s.Run()
	if !h.Done() {
		t.Fatal("not done after firing")
	}
	if h.Class() != TimerJob {
		t.Fatal("class accessor")
	}
}

func TestReplanWhileEngagedIsNoop(t *testing.T) {
	s, _, f := setup(1)
	cpu := node.NewCPU(s)
	fired := false
	f.Compute(UserThread, cpu, 10*sim.Millisecond, "j", func() { fired = true })
	f.Engage(0)
	f.Replan() // must not re-arm anything inside an engaged firewall
	s.RunFor(sim.Second)
	if fired {
		t.Fatal("compute fired during engage after Replan")
	}
	f.Disengage(0)
	s.Run()
	if !fired {
		t.Fatal("compute lost")
	}
}

// TestSameInstantRearmOrderIsStable pins the pending-set order: timers
// due at one instant fire in the same order after every
// engage/disengage cycle, on every run. Disengage re-arms in pending
// order, and a same-instant re-arm fires in re-arm order, so an
// unordered pending set (a map keyed by pointer) reorders them from run
// to run.
func TestSameInstantRearmOrderIsStable(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		s, _, f := setup(1)
		var order string
		hs := map[string]*Handle{}
		for _, name := range []string{"a", "v", "b", "c"} {
			name := name
			hs[name] = f.After(TimerJob, 10*sim.Millisecond, name, func() { order += name })
		}
		// Cancelling v moves the last handle, c, into its slot.
		f.Cancel(hs["v"])
		for i := 0; i < 3; i++ {
			s.RunFor(sim.Millisecond)
			f.Engage(0)
			s.RunFor(sim.Millisecond)
			f.Disengage(0)
		}
		s.Run()
		if order != "acb" {
			t.Fatalf("trial %d: fire order %q, want acb", trial, order)
		}
	}
}

// TestReusableHandleCycle runs one idle handle through fire, cancel
// and restart: a fired handle leaves the pending set, a cancelled one
// can be started again, and each start fires once after its own delay.
func TestReusableHandleCycle(t *testing.T) {
	s, _, f := setup(1)
	var fires []sim.Time
	h := f.NewTimer(TimerJob, "r", func() { fires = append(fires, s.Now()) })
	if f.Pending() != 0 || h.Done() {
		t.Fatal("idle handle is pending or done")
	}
	h.Start(10 * sim.Millisecond)
	if f.Pending() != 1 {
		t.Fatalf("pending = %d after Start", f.Pending())
	}
	s.Run()
	if f.Pending() != 0 || !h.Done() {
		t.Fatalf("fired handle: pending %d, done %v", f.Pending(), h.Done())
	}
	h.Start(5 * sim.Millisecond)
	f.Cancel(h)
	h.Start(7 * sim.Millisecond)
	s.Run()
	want := []sim.Time{10 * sim.Millisecond, 17 * sim.Millisecond}
	if len(fires) != 2 || fires[0] != want[0] || fires[1] != want[1] {
		t.Fatalf("fires at %v, want %v", fires, want)
	}
}

// TestReusableHandleStartLivePanics guards the serial-owner contract:
// a handle is armed by one owner at a time, so starting it while it is
// armed or parked is a bug.
func TestReusableHandleStartLivePanics(t *testing.T) {
	_, _, f := setup(1)
	h := f.NewTimer(TimerJob, "r", func() {})
	h.Start(sim.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("Start of a live handle did not panic")
		}
	}()
	h.Start(sim.Millisecond)
}

// TestReusableHandleStartWhileEngagedParks checks a handle started
// while the firewall is engaged waits out the checkpoint and then runs
// its full virtual delay (timer) or full work (compute).
func TestReusableHandleStartWhileEngagedParks(t *testing.T) {
	s, c, f := setup(1)
	cpu := node.NewCPU(s)
	var timerAt, computeAt sim.Time
	tm := f.NewTimer(TimerJob, "t", func() { timerAt = c.SystemTime() })
	job := f.NewCompute(SoftIRQ, cpu, "j", func() { computeAt = c.SystemTime() })
	f.Engage(0)
	tm.Start(10 * sim.Millisecond)
	job.Start(4 * sim.Millisecond)
	s.RunFor(sim.Second)
	if tm.Done() || job.Done() || f.InsideFired != 0 {
		t.Fatal("handle started while engaged fired inside the checkpoint")
	}
	f.Disengage(0)
	s.Run()
	if timerAt != 10*sim.Millisecond || computeAt != 4*sim.Millisecond {
		t.Fatalf("virtual fire times %v and %v, want 10ms and 4ms", timerAt, computeAt)
	}
}

// TestReusableHandleStartFireAllocs pins the point of a reusable
// handle: once built, a Start→fire cycle allocates nothing.
func TestReusableHandleStartFireAllocs(t *testing.T) {
	s, _, f := setup(1)
	cpu := node.NewCPU(s)
	tm := f.NewTimer(TimerJob, "t", func() {})
	job := f.NewCompute(SoftIRQ, cpu, "j", func() {})
	tm.Start(sim.Millisecond)
	job.Start(sim.Millisecond)
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Start(sim.Millisecond)
		job.Start(sim.Microsecond)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("Start→fire allocates %.1f per cycle, want 0", allocs)
	}
}

// TestDoMatchesAfter runs one workload through Do and through After:
// same-instant sleeps, a chain that re-arms from its own callback, an
// outside-class activity and an engage/disengage cycle. The fire times,
// the fire order and the simulator's schedule digest must be equal, and
// the pooled run must recycle its handles rather than build new ones.
func TestDoMatchesAfter(t *testing.T) {
	run := func(pooled bool) (string, uint64, int) {
		s, c, f := setup(1)
		schedule := func(class Class, d sim.Time, name string, fn func()) {
			if pooled {
				f.Do(class, d, name, fn)
			} else {
				f.After(class, d, name, fn)
			}
		}
		var log string
		mark := func(name string) func() {
			return func() { log += fmt.Sprintf("%s@%v ", name, c.SystemTime()) }
		}
		chain := 0
		var step func()
		step = func() {
			mark("chain")()
			if chain++; chain < 6 {
				schedule(TimerJob, 3*sim.Millisecond, "chain", step)
			}
		}
		schedule(TimerJob, 3*sim.Millisecond, "chain", step)
		for _, name := range []string{"a", "b", "c"} {
			schedule(TimerJob, 5*sim.Millisecond, name, mark(name))
		}
		schedule(SoftIRQ, 0, "bio", mark("bio"))
		s.RunFor(4 * sim.Millisecond)
		f.Engage(0)
		schedule(XenBus, sim.Millisecond, "xb", mark("xb"))
		schedule(SoftIRQ, 0, "parked", mark("parked"))
		s.RunFor(50 * sim.Millisecond)
		f.Disengage(0)
		s.Run()
		return log, s.ScheduleDigest(), len(f.free)
	}
	wantLog, wantDigest, _ := run(false)
	gotLog, gotDigest, free := run(true)
	if gotLog != wantLog {
		t.Fatalf("Do fired %q, After fired %q", gotLog, wantLog)
	}
	if gotDigest != wantDigest {
		t.Fatalf("Do schedule digest %016x, After %016x", gotDigest, wantDigest)
	}
	// At most six Do activities were pending at once (the chain, a, b
	// and c, then xb and parked during the engage), so the pool built
	// six handles and every one is back on the free list.
	if free != 6 {
		t.Fatalf("free list holds %d handles after the run, want 6", free)
	}
}

// TestDoSteadyStateAllocs holds fire-and-forget activity to zero
// allocations once the free list has grown to its peak, across an
// engage/disengage cycle as well.
func TestDoSteadyStateAllocs(t *testing.T) {
	s, _, f := setup(1)
	fn := func() {}
	cycle := func() {
		for i := 0; i < 4; i++ {
			f.Do(TimerJob, sim.Time(i+1)*sim.Millisecond, "sleep", fn)
		}
		f.Do(SoftIRQ, 0, "bio", fn)
		s.RunFor(sim.Millisecond / 2)
		f.Engage(0)
		f.Do(XenBus, sim.Millisecond, "xb", fn)
		s.RunFor(5 * sim.Millisecond)
		f.Disengage(0)
		s.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("Do→fire allocates %.1f per cycle, want 0", allocs)
	}
}

// TestHandleSize guards Handle's allocation size class: one more word
// moves it from the 160-byte class to the 176-byte one, which the
// packet path measurably pays for.
func TestHandleSize(t *testing.T) {
	if size := unsafe.Sizeof(Handle{}); size > 160 {
		t.Fatalf("Handle is %d bytes, want <= 160", size)
	}
}
