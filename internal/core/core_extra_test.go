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

// starRig builds a hub-and-spokes experiment: n leaves, each on its own
// shaped link through a delay node to the hub.
func starRig(seed int64, leaves int) (*sim.Simulator, *Coordinator, []*guest.Kernel) {
	s := sim.New(seed)
	p := node.DefaultParams()
	bus := notify.NewBus(s)
	y := ntpsim.New(s, seed)

	hub := node.NewMachine(s, "hub", p)
	hubK := guest.New(hub, p, guest.DefaultConfig())
	hubHV := xen.New(hub, p, hubK)
	y.Start("hub")
	members := []*Member{{Name: "hub", HV: hubHV}}
	kernels := []*guest.Kernel{hubK}

	// Hub routes by destination across its spokes.
	hubRoutes := make(map[simnet.Addr]simnet.Port)
	hub.ExpNIC.Attach(simnet.PortFunc(func(pkt *simnet.Packet) {
		if out, ok := hubRoutes[pkt.Dst]; ok {
			out.Accept(pkt)
		}
	}))

	var dns []*dummynet.DelayNode
	for i := 0; i < leaves; i++ {
		name := string(rune('a' + i))
		m := node.NewMachine(s, name, p)
		k := guest.New(m, p, guest.DefaultConfig())
		hv := xen.New(m, p, k)
		dn := dummynet.NewDelayNode(s, "dn-"+name, 100*simnet.Mbps, 3*sim.Millisecond)
		m.ExpNIC.Attach(simnet.NewWire(s, sim.Microsecond, dn.Forward))
		dn.AttachForward(hub.ExpNIC)
		hubRoutes[m.ExpNIC.Addr()] = simnet.NewWire(s, sim.Microsecond, dn.Reverse)
		dn.AttachReverse(m.ExpNIC)
		y.Start(name)
		y.Start(dn.Name)
		members = append(members, &Member{Name: name, HV: hv})
		kernels = append(kernels, k)
		dns = append(dns, dn)
	}
	return s, NewCoordinator(s, bus, y, members, dns), kernels
}

func TestStarTopologyCheckpoint(t *testing.T) {
	s, coord, ks := starRig(1, 4)
	// Leaves ping the hub continuously.
	hub := ks[0]
	hub.Handle("p", func(from simnet.Addr, m *guest.Message) {
		hub.Send(from, 100, &guest.Message{Port: "q"})
	})
	echoes := 0
	for _, k := range ks[1:] {
		k := k
		k.Handle("q", func(simnet.Addr, *guest.Message) {
			echoes++
			k.Usleep(20*sim.Millisecond, func() {
				k.Send("hub", 100, &guest.Message{Port: "p"})
			})
		})
		k.Send("hub", 100, &guest.Message{Port: "p"})
	}
	s.RunFor(10 * sim.Second)
	base := echoes
	var res *Result
	if err := coord.Checkpoint(Options{Incremental: true}, func(r *Result, _ error) { res = r }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(30 * sim.Second)
	if res == nil {
		t.Fatal("no checkpoint")
	}
	if len(res.Images) != 5 || len(res.DelayStates) != 4 {
		t.Fatalf("images=%d delays=%d", len(res.Images), len(res.DelayStates))
	}
	if echoes <= base {
		t.Fatal("traffic did not survive the 5-node checkpoint")
	}
	for _, k := range ks {
		if k.FW.InsideFired != 0 {
			t.Fatalf("%s: inside activity during checkpoint", k.Name)
		}
	}
}

func TestSkipDelayNodesPushesStateToEndpoints(t *testing.T) {
	run := func(skip bool) (endpointLogged bool, res *Result) {
		s, coord, ks := starRig(3, 2)
		hub := ks[0]
		hub.Handle("p", func(simnet.Addr, *guest.Message) {})
		// Leaves stream one-way traffic at the hub.
		for _, k := range ks[1:] {
			k := k
			var pump func()
			pump = func() {
				k.Send("hub", 1400, &guest.Message{Port: "p"})
				k.AfterVirtual(300*sim.Microsecond, "pump", pump)
			}
			pump()
		}
		s.RunFor(30 * sim.Second)
		logged := false
		stop := false
		var watch func()
		watch = func() {
			if stop {
				return
			}
			if hub.M.ExpNIC.ReplayLogLen() > 0 {
				logged = true
			}
			s.After(100*sim.Microsecond, "watch", watch)
		}
		watch()
		coord.Checkpoint(Options{Incremental: true, SkipDelayNodes: skip}, func(r *Result, _ error) { res = r })
		s.RunFor(20 * sim.Second)
		stop = true
		s.RunFor(sim.Second)
		return logged, res
	}
	loggedWith, resWith := run(false)
	loggedWithout, resWithout := run(true)
	if resWith == nil || resWithout == nil {
		t.Fatal("checkpoints incomplete")
	}
	if len(resWithout.DelayStates) != 0 {
		t.Fatal("ablated run serialized delay nodes")
	}
	if !loggedWithout {
		t.Fatal("ablation did not push packets into endpoint logs")
	}
	_ = loggedWith // with capture, logs stay near-empty (skew window only)
}

func TestHistoryAccumulates(t *testing.T) {
	s, coord, _ := starRig(4, 1)
	s.RunFor(sim.Second)
	for i := 0; i < 3; i++ {
		done := false
		coord.Checkpoint(Options{Incremental: i > 0}, func(*Result, error) { done = true })
		s.RunFor(30 * sim.Second)
		if !done {
			t.Fatalf("checkpoint %d incomplete", i+1)
		}
	}
	if len(coord.History) != 3 {
		t.Fatalf("history = %d", len(coord.History))
	}
	for i, r := range coord.History {
		if r.Epoch != i+1 {
			t.Fatalf("epoch order: %d at %d", r.Epoch, i)
		}
	}
}

func TestResumeHeldErrors(t *testing.T) {
	s, coord, _ := starRig(5, 1)
	if err := coord.ResumeHeld(nil); err == nil {
		t.Fatal("resume with nothing held")
	}
	s.RunFor(sim.Second)
	held := false
	coord.Checkpoint(Options{HoldResume: true}, func(*Result, error) { held = true })
	s.RunFor(30 * sim.Second)
	if !held {
		t.Fatal("hold checkpoint incomplete")
	}
	if !coord.Held() {
		t.Fatal("not held")
	}
	resumed := false
	if err := coord.ResumeHeld(func(*Result, error) { resumed = true }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(10 * sim.Second)
	if !resumed {
		t.Fatal("resume incomplete")
	}
	if coord.Held() {
		t.Fatal("still held after resume")
	}
}

func TestTriggerFromNode(t *testing.T) {
	s, coord, ks := starRig(6, 2)
	s.RunFor(sim.Second)
	// Node "a" hits a watchpoint and triggers a checkpoint itself.
	var res *Result
	if err := coord.TriggerFromNode("a", func(r *Result, _ error) { res = r }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(30 * sim.Second)
	if res == nil {
		t.Fatal("node-triggered checkpoint incomplete")
	}
	if res.Mode != EventDriven {
		t.Fatal("node trigger should be event-driven")
	}
	if len(res.Images) != 3 {
		t.Fatalf("images = %d", len(res.Images))
	}
	for _, k := range ks {
		if k.Suspended() {
			t.Fatal("not resumed")
		}
	}
	if err := coord.TriggerFromNode("ghost", nil); err == nil {
		t.Fatal("ghost trigger accepted")
	}
}

func TestConcurrentNodeTriggersCoalesce(t *testing.T) {
	s, coord, _ := starRig(7, 2)
	s.RunFor(sim.Second)
	results := 0
	// Both leaves hit watchpoints nearly simultaneously; one epoch runs.
	coord.TriggerFromNode("a", func(*Result, error) { results++ })
	coord.TriggerFromNode("b", func(*Result, error) { results++ })
	s.RunFor(30 * sim.Second)
	if results != 1 {
		t.Fatalf("results = %d, want exactly one epoch", results)
	}
	if coord.Epoch() != 1 {
		t.Fatalf("epochs = %d", coord.Epoch())
	}
}
