package sim

import "testing"

func TestEventMetadata(t *testing.T) {
	s := New(1)
	e := s.At(5, "named", func() {})
	if e.Name() != "named" || e.When() != 5 {
		t.Fatalf("metadata: %q @ %v", e.Name(), e.When())
	}
}

func TestFiredCounter(t *testing.T) {
	s := New(1)
	for i := 0; i < 7; i++ {
		s.After(Time(i), "e", func() {})
	}
	e := s.After(100, "cancelled", func() {})
	s.Cancel(e)
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("fired = %d", s.Fired())
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d", s.Pending())
	}
}

func TestRescheduleEarlier(t *testing.T) {
	s := New(1)
	var order []string
	a := s.At(100, "a", func() { order = append(order, "a") })
	s.At(50, "b", func() { order = append(order, "b") })
	s.Reschedule(a, 10)
	s.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order: %v", order)
	}
}

func TestSchedulingFromWithinEvents(t *testing.T) {
	// Deeply chained scheduling: each event schedules the next; the
	// chain must execute fully and in order.
	s := New(1)
	depth := 0
	var chain func()
	chain = func() {
		depth++
		if depth < 1000 {
			s.After(1, "chain", chain)
		}
	}
	s.After(0, "start", chain)
	s.Run()
	if depth != 1000 {
		t.Fatalf("depth = %d", depth)
	}
	if s.Now() != 999 {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestRunUntilExactBoundary(t *testing.T) {
	s := New(1)
	hit := false
	s.At(10, "edge", func() { hit = true })
	s.RunUntil(10)
	if !hit {
		t.Fatal("event exactly at the boundary not delivered")
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New(1)
	if s.Step() {
		t.Fatal("step on empty queue")
	}
}

func TestCancelledEventsSkippedInStep(t *testing.T) {
	s := New(1)
	a := s.At(1, "a", func() {})
	fired := false
	s.At(2, "b", func() { fired = true })
	s.Cancel(a)
	if !s.Step() {
		t.Fatal("step found nothing")
	}
	if !fired {
		t.Fatal("step delivered the cancelled event instead")
	}
}

// TestScheduleDigestSeesTieBreaks checks the digest tells apart two
// runs that fire the same events at the same times but break a
// same-instant tie differently, and agrees for identical schedules.
func TestScheduleDigestSeesTieBreaks(t *testing.T) {
	run := func(swap bool) uint64 {
		s := New(1)
		var a, b *Event
		a = s.At(Second, "a", func() {})
		b = s.At(Second, "b", func() {})
		if swap {
			s.Reschedule(a, Second) // a now sorts behind b
		} else {
			s.Reschedule(b, Second)
		}
		s.Run()
		return s.ScheduleDigest()
	}
	if run(false) != run(false) {
		t.Fatal("identical schedules give different digests")
	}
	if run(false) == run(true) {
		t.Fatal("digest misses a same-instant reordering")
	}
	if New(1).ScheduleDigest() == run(false) {
		t.Fatal("digest ignores fired events")
	}
}
