package evalrun

import "testing"

func TestTimeshareStatefulBeatsStateless(t *testing.T) {
	r := Timeshare(1)
	if r.Stateful.Completed != r.Tenants {
		t.Fatalf("stateful completed %d/%d", r.Stateful.Completed, r.Tenants)
	}
	if r.Stateful.LostTicks != 0 {
		t.Fatalf("stateful lost %d ticks", r.Stateful.LostTicks)
	}
	if r.Stateful.Preemptions == 0 {
		t.Fatal("stateful run never preempted; pool was not oversubscribed")
	}
	if r.Stateless.Completed >= r.Stateful.Completed {
		t.Fatalf("stateless completed %d, stateful %d: baseline should lose",
			r.Stateless.Completed, r.Stateful.Completed)
	}
	if r.Stateless.LostTicks == 0 {
		t.Fatal("stateless restarts lost nothing")
	}
	// Deterministic across runs.
	r2 := Timeshare(1)
	if *r != *r2 {
		t.Fatalf("nondeterministic benchmark:\n%+v\n%+v", r, r2)
	}
}

// TestTimeshareIncrementalBeatsFullCopy is the incremental pipeline's
// acceptance bar: same work, same pool, strictly fewer bytes through
// the file server and an earlier finish than full-copy swapping.
func TestTimeshareIncrementalBeatsFullCopy(t *testing.T) {
	r := Timeshare(1)
	if r.StatefulIncr.Completed != r.Tenants {
		t.Fatalf("incremental completed %d/%d", r.StatefulIncr.Completed, r.Tenants)
	}
	if r.StatefulIncr.LostTicks != 0 {
		t.Fatalf("incremental lost %d ticks", r.StatefulIncr.LostTicks)
	}
	if r.StatefulIncr.MovedMB >= r.Stateful.MovedMB {
		t.Fatalf("incremental moved %.1f MB, full-copy %.1f MB — must be strictly fewer",
			r.StatefulIncr.MovedMB, r.Stateful.MovedMB)
	}
	if r.StatefulIncr.AllDoneS <= 0 || r.Stateful.AllDoneS <= 0 {
		t.Fatalf("a stateful mode missed the horizon: incr %.0f s, full %.0f s",
			r.StatefulIncr.AllDoneS, r.Stateful.AllDoneS)
	}
	if r.StatefulIncr.AllDoneS >= r.Stateful.AllDoneS {
		t.Fatalf("incremental finished at %.0f s, full-copy at %.0f s — must be strictly sooner",
			r.StatefulIncr.AllDoneS, r.Stateful.AllDoneS)
	}
	if r.StatefulIncr.PreemptedMB >= r.Stateful.PreemptedMB {
		t.Fatalf("preemption bill: incremental %.1f MB, full %.1f MB — park cost not proportional to dirtied state",
			r.StatefulIncr.PreemptedMB, r.Stateful.PreemptedMB)
	}
}
