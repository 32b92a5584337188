package core

import (
	"testing"

	"emucheck/internal/dummynet"
	"emucheck/internal/guest"
	"emucheck/internal/node"
	"emucheck/internal/notify"
	"emucheck/internal/ntpsim"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
	"emucheck/internal/xen"
)

// rig is a two-node experiment with a delay node on the link.
type rig struct {
	s     *sim.Simulator
	bus   *notify.Bus
	ntp   *ntpsim.Sync
	ka    *guest.Kernel
	kb    *guest.Kernel
	dn    *dummynet.DelayNode
	coord *Coordinator
}

func newRig(seed int64) *rig {
	s := sim.New(seed)
	p := node.DefaultParams()
	ma := node.NewMachine(s, "a", p)
	mb := node.NewMachine(s, "b", p)
	ka := guest.New(ma, p, guest.DefaultConfig())
	kb := guest.New(mb, p, guest.DefaultConfig())
	ha := xen.New(ma, p, ka)
	hb := xen.New(mb, p, kb)
	dn := dummynet.NewDelayNode(s, "delay0", 100*simnet.Mbps, 5*sim.Millisecond)
	// a <-> delay node <-> b with ~zero-delay wires (paper §4.4).
	ma.ExpNIC.Attach(simnet.NewWire(s, 2*sim.Microsecond, dn.Forward))
	mb.ExpNIC.Attach(simnet.NewWire(s, 2*sim.Microsecond, dn.Reverse))
	dn.AttachForward(mb.ExpNIC)
	dn.AttachReverse(ma.ExpNIC)

	bus := notify.NewBus(s)
	y := ntpsim.New(s, seed)
	y.Start("a")
	y.Start("b")
	y.Start("delay0")
	coord := NewCoordinator(s, bus, y,
		[]*Member{{Name: "a", HV: ha}, {Name: "b", HV: hb}},
		[]*dummynet.DelayNode{dn})
	return &rig{s: s, bus: bus, ntp: y, ka: ka, kb: kb, dn: dn, coord: coord}
}

func TestScheduledCheckpointCompletes(t *testing.T) {
	r := newRig(1)
	r.s.RunFor(sim.Second)
	var res *Result
	if err := r.coord.Checkpoint(Options{}, func(x *Result, _ error) { res = x }); err != nil {
		t.Fatal(err)
	}
	r.s.RunFor(30 * sim.Second)
	if res == nil {
		t.Fatal("checkpoint never completed")
	}
	if len(res.Images) != 2 || len(res.DelayStates) != 1 {
		t.Fatalf("images=%d delays=%d", len(res.Images), len(res.DelayStates))
	}
	if r.ka.Suspended() || r.kb.Suspended() || r.dn.Forward.Frozen() {
		t.Fatal("experiment not fully resumed")
	}
	if res.TotalBytes <= 0 {
		t.Fatal("no bytes accounted")
	}
	if len(r.coord.History) != 1 {
		t.Fatal("history not recorded")
	}
}

func TestScheduledSkewBoundedByClockSync(t *testing.T) {
	r := newRig(2)
	// Let NTP converge well past the initial transient.
	r.s.RunFor(60 * sim.Second)
	var res *Result
	r.coord.Checkpoint(Options{Incremental: true}, func(x *Result, _ error) { res = x })
	r.s.RunFor(30 * sim.Second)
	if res == nil {
		t.Fatal("no result")
	}
	// Steady-state NTP: skew well under a millisecond (~2x200 µs).
	if res.SuspendSkew > 800*sim.Microsecond {
		t.Fatalf("suspend skew %v too large for scheduled mode", res.SuspendSkew)
	}
	if res.ResumeSkew > 2*sim.Millisecond {
		t.Fatalf("resume skew %v", res.ResumeSkew)
	}
}

func TestEventDrivenSkewIsWorse(t *testing.T) {
	// Compare modes at the same converged moment: scheduled skew should
	// be bounded by clock sync, event-driven by notification jitter.
	sched := newRig(3)
	sched.s.RunFor(60 * sim.Second)
	var rs *Result
	sched.coord.Checkpoint(Options{Mode: Scheduled, Incremental: true}, func(x *Result, _ error) { rs = x })
	sched.s.RunFor(30 * sim.Second)

	ev := newRig(3)
	ev.s.RunFor(60 * sim.Second)
	var re *Result
	ev.coord.Checkpoint(Options{Mode: EventDriven, Incremental: true}, func(x *Result, _ error) { re = x })
	ev.s.RunFor(30 * sim.Second)

	if rs == nil || re == nil {
		t.Fatal("missing results")
	}
	if re.SuspendSkew <= rs.SuspendSkew {
		t.Fatalf("event-driven skew %v not worse than scheduled %v", re.SuspendSkew, rs.SuspendSkew)
	}
}

func TestCheckpointTransparentToDistributedPingPong(t *testing.T) {
	r := newRig(4)
	// A ping-pong application across the delay node (5 ms one-way):
	// measures round-trip times in guest virtual time.
	var rtts []sim.Time
	var sentAt sim.Time
	pings := 0
	r.kb.Handle("ping", func(from simnet.Addr, m *guest.Message) {
		r.kb.Send("a", 200, &guest.Message{Port: "pong"})
	})
	var sendPing func()
	r.ka.Handle("pong", func(from simnet.Addr, m *guest.Message) {
		rtts = append(rtts, r.ka.Monotonic()-sentAt)
		pings++
		if pings < 30 {
			sendPing()
		}
	})
	sendPing = func() {
		sentAt = r.ka.Monotonic()
		r.ka.Send("b", 200, &guest.Message{Port: "ping"})
	}
	sendPing()

	// Checkpoint storm: 3 checkpoints while the ping-pong runs.
	pc := &PeriodicCheckpointer{C: r.coord, Interval: 2 * sim.Second, Opts: Options{Incremental: true}}
	pc.Start(3)
	r.s.RunFor(3 * sim.Minute)

	if pings < 30 {
		t.Fatalf("ping-pong starved: %d", pings)
	}
	if pc.Count() != 3 {
		t.Fatalf("checkpoints = %d", pc.Count())
	}
	// RTT through the delay node is >= 10 ms; checkpointed RTTs may see
	// the sync-skew bound extra, but never a checkpoint-sized (seconds)
	// gap in virtual time.
	for i, rtt := range rtts {
		if rtt < 10*sim.Millisecond {
			t.Fatalf("rtt %d = %v beat the emulated link", i, rtt)
		}
		if rtt > 60*sim.Millisecond {
			t.Fatalf("rtt %d = %v: checkpoint leaked into virtual time", i, rtt)
		}
	}
}

func TestNoInsideActivityDuringCheckpoints(t *testing.T) {
	r := newRig(5)
	// Busy guests.
	var churnA, churnB func()
	churnA = func() { r.ka.Compute(20*sim.Millisecond, "a.churn", churnA) }
	churnB = func() { r.kb.Compute(20*sim.Millisecond, "b.churn", churnB) }
	churnA()
	churnB()
	pc := &PeriodicCheckpointer{C: r.coord, Interval: sim.Second, Opts: Options{Incremental: true}}
	pc.Start(5)
	r.s.RunFor(2 * sim.Minute)
	if pc.Count() != 5 {
		t.Fatalf("checkpoints = %d", pc.Count())
	}
	if r.ka.FW.InsideFired != 0 || r.kb.FW.InsideFired != 0 {
		t.Fatalf("inside activity during checkpoint: a=%d b=%d", r.ka.FW.InsideFired, r.kb.FW.InsideFired)
	}
}

func TestConcurrentCheckpointRejected(t *testing.T) {
	r := newRig(6)
	r.s.RunFor(sim.Second)
	r.coord.Checkpoint(Options{}, nil)
	if err := r.coord.Checkpoint(Options{}, nil); err == nil {
		t.Fatal("overlapping checkpoint accepted")
	}
	r.s.RunFor(30 * sim.Second)
}

func TestInFlightPacketsSurviveCheckpoint(t *testing.T) {
	r := newRig(7)
	recv := 0
	r.kb.Handle("data", func(simnet.Addr, *guest.Message) { recv++ })
	r.s.RunFor(60 * sim.Second)
	// Fill the 5 ms delay pipe and checkpoint while packets are in it.
	for i := 0; i < 20; i++ {
		r.ka.Send("b", 1500, &guest.Message{Port: "data"})
	}
	var res *Result
	r.coord.Checkpoint(Options{Incremental: true, Lead: 2 * sim.Millisecond}, func(x *Result, _ error) { res = x })
	r.s.RunFor(30 * sim.Second)
	if res == nil {
		t.Fatal("no checkpoint")
	}
	if recv != 20 {
		t.Fatalf("received %d/20 across checkpoint", recv)
	}
	// The delay-node state should have captured some of the burst.
	captured := 0
	for _, st := range res.DelayStates {
		captured += len(st.Forward.DelayLine) + len(st.Forward.Queue)
	}
	if captured == 0 {
		t.Log("note: burst drained before freeze (timing-dependent); conservation still holds")
	}
}

func TestPeriodicCheckpointerStop(t *testing.T) {
	r := newRig(8)
	pc := &PeriodicCheckpointer{C: r.coord, Interval: sim.Second, Opts: Options{Incremental: true}}
	pc.Start(0)
	r.s.RunFor(3500 * sim.Millisecond)
	pc.Stop()
	n := pc.Count()
	r.s.RunFor(10 * sim.Second)
	if pc.Count() > n+1 {
		t.Fatalf("checkpointer kept running after stop: %d -> %d", n, pc.Count())
	}
}
