package sched

import (
	"testing"

	"emucheck/internal/sim"
)

// fakeJob builds a job whose hooks take fixed simulated durations.
func fakeJob(s *sim.Simulator, name string, need, pri int, startDur, parkDur, resumeDur sim.Time) *Job {
	return &Job{
		Name: name, Need: need, Priority: pri, Preemptible: true,
		Hooks: Hooks{
			Start:  func(done func(error)) { s.After(startDur, "fake.start", func() { done(nil) }) },
			Park:   func(done func(error)) { s.After(parkDur, "fake.park", func() { done(nil) }) },
			Resume: func(done func(error)) { s.After(resumeDur, "fake.resume", func() { done(nil) }) },
		},
	}
}

func TestAdmissionWithinCapacity(t *testing.T) {
	s := sim.New(1)
	d := New(s, 4, FIFO)
	a := fakeJob(s, "a", 2, 0, sim.Second, sim.Second, sim.Second)
	b := fakeJob(s, "b", 2, 0, sim.Second, sim.Second, sim.Second)
	if err := d.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(b); err != nil {
		t.Fatal(err)
	}
	s.RunFor(2 * sim.Second)
	if a.State() != Running || b.State() != Running {
		t.Fatalf("states: %v %v", a.State(), b.State())
	}
	if d.Free() != 0 {
		t.Fatalf("free = %d", d.Free())
	}
}

func TestRejectsOverPoolDemand(t *testing.T) {
	s := sim.New(1)
	d := New(s, 4, FIFO)
	if err := d.Submit(fakeJob(s, "big", 5, 0, 0, 0, 0)); err == nil {
		t.Fatal("oversized job admitted")
	}
	if err := d.Submit(&Job{Name: "zero", Need: 0}); err == nil {
		t.Fatal("zero-need job admitted")
	}
}

func TestFIFOPreemptsOldestForQueuedJob(t *testing.T) {
	s := sim.New(1)
	d := New(s, 4, FIFO)
	d.MinResidency = 5 * sim.Second
	a := fakeJob(s, "a", 2, 0, sim.Second, sim.Second, sim.Second)
	b := fakeJob(s, "b", 2, 0, sim.Second, sim.Second, sim.Second)
	c := fakeJob(s, "c", 2, 0, sim.Second, sim.Second, sim.Second)
	for _, j := range []*Job{a, b, c} {
		if err := d.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if c.State() != Queued {
		t.Fatalf("c should queue, is %v", c.State())
	}
	s.RunFor(10 * sim.Second)
	// a (earliest admitted) was preempted, c admitted.
	if a.Preemptions() != 1 {
		t.Fatalf("a preemptions = %d", a.Preemptions())
	}
	if c.State() != Running {
		t.Fatalf("c = %v", c.State())
	}
	if c.QueueWait() <= 0 {
		t.Fatal("c waited zero")
	}
	// a re-queued automatically and eventually resumes (round-robin).
	s.RunFor(30 * sim.Second)
	if a.Admissions() < 2 {
		t.Fatalf("a admissions = %d", a.Admissions())
	}
}

func TestMinResidencyDefersPreemption(t *testing.T) {
	s := sim.New(1)
	d := New(s, 2, FIFO)
	d.MinResidency = 20 * sim.Second
	a := fakeJob(s, "a", 2, 0, 0, 0, 0)
	b := fakeJob(s, "b", 2, 0, 0, 0, 0)
	if err := d.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(b); err != nil {
		t.Fatal(err)
	}
	s.RunFor(10 * sim.Second)
	if a.Preemptions() != 0 {
		t.Fatal("preempted before residency")
	}
	s.RunFor(15 * sim.Second)
	if a.Preemptions() != 1 || b.State() != Running {
		t.Fatalf("a pre=%d b=%v", a.Preemptions(), b.State())
	}
}

func TestIdleFirstPicksLongestIdle(t *testing.T) {
	s := sim.New(1)
	d := New(s, 4, IdleFirst)
	d.MinResidency = 20 * sim.Second
	a := fakeJob(s, "a", 2, 0, 0, 0, 0)
	b := fakeJob(s, "b", 2, 0, 0, 0, 0)
	var parkOrder []string
	for _, j := range []*Job{a, b} {
		j, inner := j, j.Hooks.Park
		j.Hooks.Park = func(done func(error)) {
			parkOrder = append(parkOrder, j.Name)
			inner(done)
		}
	}
	if err := d.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(b); err != nil {
		t.Fatal(err)
	}
	// a stays busy; b goes idle.
	stop := false
	var touch func()
	touch = func() {
		if stop {
			return
		}
		d.Touch(d.Job("a"))
		s.After(sim.Second, "touch", touch)
	}
	touch()
	s.RunFor(10 * sim.Second)
	c := fakeJob(s, "c", 2, 0, 0, 0, 0)
	if err := d.Submit(c); err != nil {
		t.Fatal(err)
	}
	// At 20 s residency matures; the idle job b must be the first
	// victim (continued queue pressure may rotate others afterwards).
	s.RunFor(time30)
	stop = true
	if len(parkOrder) == 0 || parkOrder[0] != "b" {
		t.Fatalf("first victim = %v, want b", parkOrder)
	}
	if c.Admissions() == 0 {
		t.Fatal("c never admitted")
	}
}

func TestPriorityOnlyPreemptsStrictlyLower(t *testing.T) {
	s := sim.New(1)
	d := New(s, 2, Priority)
	d.MinResidency = sim.Second
	lo := fakeJob(s, "lo", 2, 1, 0, 0, 0)
	if err := d.Submit(lo); err != nil {
		t.Fatal(err)
	}
	s.RunFor(2 * sim.Second)

	eq := fakeJob(s, "eq", 2, 1, 0, 0, 0)
	if err := d.Submit(eq); err != nil {
		t.Fatal(err)
	}
	s.RunFor(10 * sim.Second)
	if lo.Preemptions() != 0 || eq.State() != Queued {
		t.Fatalf("equal priority preempted: lo=%d eq=%v", lo.Preemptions(), eq.State())
	}

	// A strictly higher-priority job does preempt — but FIFO admission
	// order means it must wait behind eq... the queue head blocks, so
	// finish eq first to keep the test focused on priority victims.
	if err := d.Finish("eq"); err != nil {
		t.Fatal(err)
	}
	hi := fakeJob(s, "hi", 2, 5, 0, 0, 0)
	if err := d.Submit(hi); err != nil {
		t.Fatal(err)
	}
	s.RunFor(10 * sim.Second)
	if lo.Preemptions() != 1 || hi.State() != Running {
		t.Fatalf("lo=%d hi=%v", lo.Preemptions(), hi.State())
	}
}

func TestVoluntaryParkAndUnpark(t *testing.T) {
	s := sim.New(1)
	d := New(s, 2, FIFO)
	a := fakeJob(s, "a", 2, 0, 0, sim.Second, sim.Second)
	if err := d.Submit(a); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Second)
	if err := d.Park("a"); err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * sim.Second)
	if a.State() != Parked {
		t.Fatalf("a = %v", a.State())
	}
	if d.Free() != 2 {
		t.Fatalf("free = %d", d.Free())
	}
	// Parked jobs do not auto-resume.
	s.RunFor(time30)
	if a.State() != Parked {
		t.Fatalf("a resumed on its own: %v", a.State())
	}
	if err := d.Unpark("a"); err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * sim.Second)
	if a.State() != Running {
		t.Fatalf("a = %v", a.State())
	}
}

const time30 = 30 * sim.Second

func TestFinishFreesCapacityAndAdmitsQueue(t *testing.T) {
	s := sim.New(1)
	d := New(s, 2, FIFO)
	d.MinResidency = sim.Hour // no preemption: only Finish can free
	a := fakeJob(s, "a", 2, 0, 0, 0, 0)
	b := fakeJob(s, "b", 2, 0, 0, 0, 0)
	if err := d.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(b); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Second)
	if b.State() != Queued {
		t.Fatalf("b = %v", b.State())
	}
	if err := d.Finish("a"); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Second)
	if b.State() != Running || a.State() != Done {
		t.Fatalf("a=%v b=%v", a.State(), b.State())
	}
	if d.AllDone() {
		t.Fatal("b still running")
	}
	if err := d.Finish("b"); err != nil {
		t.Fatal(err)
	}
	if !d.AllDone() {
		t.Fatal("all done")
	}
}

func TestQueueWaitVisibleWhileStillQueued(t *testing.T) {
	s := sim.New(1)
	d := New(s, 2, FIFO)
	hog := fakeJob(s, "hog", 2, 0, 0, 0, 0)
	hog.Preemptible = false
	if err := d.Submit(hog); err != nil {
		t.Fatal(err)
	}
	s.RunFor(10 * sim.Second)
	starved := fakeJob(s, "starved", 2, 0, 0, 0, 0)
	if err := d.Submit(starved); err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * sim.Minute)
	if starved.State() != Queued {
		t.Fatalf("starved = %v", starved.State())
	}
	// The in-progress wait must be reported, not deferred to admission.
	if w := starved.QueueWait(); w < 4*sim.Minute {
		t.Fatalf("starved job reports only %v of queue wait", w)
	}
}

func TestUtilizationAndDeterminism(t *testing.T) {
	run := func() (float64, uint64) {
		s := sim.New(7)
		d := New(s, 4, FIFO)
		d.MinResidency = 5 * sim.Second
		for _, n := range []string{"a", "b", "c"} {
			if err := d.Submit(fakeJob(s, n, 2, 0, sim.Second, sim.Second, sim.Second)); err != nil {
				t.Fatal(err)
			}
		}
		s.RunFor(60 * sim.Second)
		return d.Utilization(), s.Fired()
	}
	u1, f1 := run()
	u2, f2 := run()
	if u1 != u2 || f1 != f2 {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", u1, f1, u2, f2)
	}
	if u1 <= 0.5 || u1 > 1 {
		t.Fatalf("utilization = %v", u1)
	}
}
