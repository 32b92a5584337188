package sched

import (
	"testing"

	"emucheck/internal/sim"
)

// TestIdleFirstBreaksTiesByParkCost: two equally idle victims — the
// scheduler must preempt the one whose park moves fewer bytes.
func TestIdleFirstBreaksTiesByParkCost(t *testing.T) {
	s := sim.New(1)
	d := New(s, 4, IdleFirst)
	d.MinResidency = 3 * sim.Second
	cheap := fakeJob(s, "cheap", 2, 0, 0, sim.Second, sim.Second)
	cheap.Hooks.ParkCost = func() int64 { return 4 << 20 }
	costly := fakeJob(s, "costly", 2, 0, 0, sim.Second, sim.Second)
	costly.Hooks.ParkCost = func() int64 { return 256 << 20 }
	for _, j := range []*Job{costly, cheap} {
		if err := d.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	s.RunFor(2 * sim.Second)
	// Same lastActive (both touched at admission, no activity since):
	// force the tie by touching both at the same instant.
	d.Touch(d.Job("cheap"))
	d.Touch(d.Job("costly"))
	s.RunFor(2 * sim.Second)

	newcomer := fakeJob(s, "new", 2, 0, 0, sim.Second, sim.Second)
	if err := d.Submit(newcomer); err != nil {
		t.Fatal(err)
	}
	// The decision lands at submit; stop before the 1 s park completes,
	// because the parked job's re-queue then starts the next round.
	s.RunFor(500 * sim.Millisecond)

	if cheap.Preemptions() != 1 || costly.Preemptions() != 0 {
		t.Fatalf("preempted cheap=%d costly=%d; tie should break to the cheap park",
			cheap.Preemptions(), costly.Preemptions())
	}
	if d.PreemptedBytes != 4<<20 {
		t.Fatalf("PreemptedBytes = %d, want %d", d.PreemptedBytes, 4<<20)
	}
	if cheap.LastParkCost() != 4<<20 {
		t.Fatalf("LastParkCost = %d", cheap.LastParkCost())
	}
}

// TestIdlenessStillDominatesCost: park cost is a tie-break, not the
// primary key — a long-idle expensive job is still preferred over a
// recently active cheap one.
func TestIdlenessStillDominatesCost(t *testing.T) {
	s := sim.New(1)
	d := New(s, 4, IdleFirst)
	d.MinResidency = 3 * sim.Second
	idle := fakeJob(s, "idle", 2, 0, 0, sim.Second, sim.Second)
	idle.Hooks.ParkCost = func() int64 { return 256 << 20 }
	busy := fakeJob(s, "busy", 2, 0, 0, sim.Second, sim.Second)
	busy.Hooks.ParkCost = func() int64 { return 1 << 20 }
	for _, j := range []*Job{idle, busy} {
		if err := d.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	s.RunFor(5 * sim.Second)
	d.Touch(d.Job("busy"))

	if err := d.Submit(fakeJob(s, "new", 2, 0, 0, sim.Second, sim.Second)); err != nil {
		t.Fatal(err)
	}
	s.RunFor(500 * sim.Millisecond)

	if idle.Preemptions() != 1 || busy.Preemptions() != 0 {
		t.Fatalf("preempted idle=%d busy=%d; idleness must dominate cost",
			idle.Preemptions(), busy.Preemptions())
	}
	if d.PreemptedBytes != 256<<20 {
		t.Fatalf("PreemptedBytes = %d", d.PreemptedBytes)
	}
}
