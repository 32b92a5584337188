package fault

import (
	"fmt"
	"testing"

	"emucheck/internal/notify"
	"emucheck/internal/sim"
)

func TestCrashInjectionFiresAtTime(t *testing.T) {
	s := sim.New(1)
	bus := notify.NewBus(s)
	var crashedAt sim.Time
	p := &Plan{Injections: []Injection{{Kind: Crash, At: 10 * sim.Second, Target: "e1", Node: "e1a"}}}
	p.Arm(s, bus, Hooks{Crash: func(target, node string) error {
		if target != "e1" || node != "e1a" {
			t.Errorf("crash hook got %s/%s", target, node)
		}
		crashedAt = s.Now()
		return nil
	}})
	s.Run()
	if crashedAt != 10*sim.Second || p.Crashes != 1 {
		t.Fatalf("crash at %v (count %d), want 10s", crashedAt, p.Crashes)
	}
}

func TestCrashDuringSaveWaitsForSavePhase(t *testing.T) {
	s := sim.New(1)
	bus := notify.NewBus(s)
	var saveWatcher func()
	crashed := false
	p := &Plan{Injections: []Injection{{Kind: Crash, At: 5 * sim.Second, Target: "e1", DuringSave: true}}}
	p.Arm(s, bus, Hooks{
		Crash:      func(string, string) error { crashed = true; return nil },
		WhenSaving: func(target string, fn func()) { saveWatcher = fn },
	})
	s.RunFor(20 * sim.Second)
	if crashed {
		t.Fatal("crashed before any save phase")
	}
	if saveWatcher == nil {
		t.Fatal("plan never armed the save watcher")
	}
	saveWatcher() // the target's epoch FSM enters saving
	if !crashed || p.Crashes != 1 {
		t.Fatal("crash did not fire on the save phase")
	}
}

func TestDropBudgetAndWindow(t *testing.T) {
	s := sim.New(1)
	bus := notify.NewBus(s)
	p := &Plan{Injections: []Injection{{
		Kind: Drop, At: 10 * sim.Second, Target: "e1", Count: 2, Window: 20 * sim.Second,
	}}}
	p.Arm(s, bus, Hooks{})

	var delivered int
	bus.Subscribe(notify.TopicCheckpoint, func(*notify.Msg) { delivered++ })
	publish := func() {
		bus.Publish(&notify.Msg{Topic: notify.TopicCheckpoint, Scope: "e1"})
	}
	// Before the window: delivered.
	s.RunFor(5 * sim.Second)
	publish()
	// Inside: the budget eats two.
	s.RunFor(10 * sim.Second)
	publish()
	publish()
	publish() // budget spent: delivered
	// Past the window: delivered.
	s.RunFor(30 * sim.Second)
	publish()
	s.Run()
	if delivered != 3 || p.Dropped != 2 || bus.Dropped != 2 {
		t.Fatalf("delivered %d (plan dropped %d, bus dropped %d); want 3/2/2", delivered, p.Dropped, bus.Dropped)
	}
	st := bus.Topic(notify.TopicCheckpoint)
	if st.Published != 5 || st.Delivered != 3 || st.Dropped != 2 {
		t.Fatalf("topic stats %+v", st)
	}
}

func TestDropScopeAndOwnerFilter(t *testing.T) {
	s := sim.New(1)
	bus := notify.NewBus(s)
	p := &Plan{Injections: []Injection{{
		Kind: Drop, At: 0, Target: "e1", Node: "e1b", Count: 99, Window: sim.Hour,
	}}}
	p.Arm(s, bus, Hooks{})
	got := map[string]int{}
	for _, owner := range []string{"e1a", "e1b"} {
		owner := owner
		bus.SubscribeScoped(notify.TopicCheckpoint, "", owner, func(*notify.Msg) { got[owner]++ })
	}
	bus.Publish(&notify.Msg{Topic: notify.TopicCheckpoint, Scope: "e1"})
	bus.Publish(&notify.Msg{Topic: notify.TopicCheckpoint, Scope: "e2"}) // other scope: untouched
	s.Run()
	if got["e1a"] != 2 || got["e1b"] != 1 {
		t.Fatalf("owner-filtered drop: %v (want e1a=2, e1b=1)", got)
	}
}

func TestDelayAddsLatencyDeterministically(t *testing.T) {
	deliverAt := func(seed int64) sim.Time {
		s := sim.New(3)
		bus := notify.NewBus(s)
		bus.JitterMax = 0
		p := &Plan{Seed: seed, Injections: []Injection{{
			Kind: Delay, At: 0, Target: "e1", Window: sim.Hour,
		}}}
		p.Arm(s, bus, Hooks{})
		var at sim.Time
		bus.Subscribe(notify.TopicCheckpoint, func(*notify.Msg) { at = s.Now() })
		bus.Publish(&notify.Msg{Topic: notify.TopicCheckpoint, Scope: "e1"})
		s.Run()
		if p.Delayed != 1 {
			t.Fatalf("delay not applied")
		}
		return at
	}
	base := deliverAt(7)
	if base <= notify.NewBus(sim.New(1)).BaseLatency {
		t.Fatalf("no extra latency: %v", base)
	}
	if deliverAt(7) != base {
		t.Fatal("same-seed delay jitter diverged")
	}
	if deliverAt(8) == base {
		t.Log("different seeds happened to collide; acceptable but unusual")
	}
}

func TestSlowInjectionsRouteToHooks(t *testing.T) {
	s := sim.New(1)
	bus := notify.NewBus(s)
	var calls []string
	hook := func(kind string) func(string, string, float64, sim.Time) error {
		return func(target, node string, factor float64, d sim.Time) error {
			calls = append(calls, fmt.Sprintf("%s:%s/%s f=%.0f d=%v", kind, target, node, factor, d))
			return nil
		}
	}
	p := &Plan{Injections: []Injection{
		{Kind: SlowDisk, At: sim.Second, Target: "e1", Node: "e1a", Factor: 8, Window: 10 * sim.Second},
		{Kind: SlowSave, At: 2 * sim.Second, Target: "e1", Node: "e1b"},
	}}
	p.Arm(s, bus, Hooks{SlowDisk: hook("disk"), SlowSave: hook("save")})
	s.Run()
	if len(calls) != 2 || p.Slowed != 2 {
		t.Fatalf("calls %v", calls)
	}
	if calls[0] != "disk:e1/e1a f=8 d=10s" {
		t.Fatalf("slow_disk call %q", calls[0])
	}
	if calls[1] != "save:e1/e1b f=4 d=30s" { // defaulted factor and window
		t.Fatalf("slow_save call %q", calls[1])
	}
}

func TestRejectedInjectionRecordedNotFatal(t *testing.T) {
	s := sim.New(1)
	bus := notify.NewBus(s)
	p := &Plan{Injections: []Injection{{Kind: Crash, At: sim.Second, Target: "ghost"}}}
	p.Arm(s, bus, Hooks{Crash: func(string, string) error { return fmt.Errorf("no such tenant") }})
	s.Run()
	if p.Crashes != 0 || len(p.Errors) != 1 {
		t.Fatalf("crashes=%d errors=%v", p.Crashes, p.Errors)
	}
}
