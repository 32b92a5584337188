package guest

import (
	"testing"

	"emucheck/internal/sim"
	"emucheck/internal/simnet"
	"emucheck/internal/vclock"
)

func TestRunstateAcrossSuspend(t *testing.T) {
	s, k := newKernel(1)
	s.RunFor(2 * sim.Second)
	k.Suspend(func() {})
	s.RunFor(30 * sim.Second)
	k.Resume(nil)
	s.RunFor(sim.Second)
	rs := k.Clock.RunstateSnapshot()
	// The 30 s frozen interval must not be charged to any state.
	var total sim.Time
	for _, v := range rs.Time {
		total += v
	}
	if total > 4*sim.Second {
		t.Fatalf("runstate accounted %v; checkpoint leaked into statistics", total)
	}
}

func TestTSCGatedThroughKernelSuspend(t *testing.T) {
	s, k := newKernel(1)
	s.RunFor(sim.Second)
	k.Suspend(func() {})
	s.RunFor(sim.Second)
	v1 := k.Clock.ReadTSC() // gated value (includes the engage leak)
	s.RunFor(10 * sim.Second)
	if got := k.Clock.ReadTSC(); got != v1 {
		t.Fatal("TSC advanced during the checkpoint")
	}
	if k.Clock.TSCGateHits() != 2 {
		t.Fatalf("gate hits = %d", k.Clock.TSCGateHits())
	}
	k.Resume(nil)
	s.RunFor(sim.Second)
	if got := k.Clock.ReadTSC(); got <= v1 {
		t.Fatal("TSC did not resume")
	}
}

func TestRxOrderPreservedAcrossFreeze(t *testing.T) {
	s, ka, kb := kernelPair(1)
	var got []int
	kb.Handle("seq", func(_ simnet.Addr, m *Message) { got = append(got, m.Data.(int)) })
	for i := 0; i < 3; i++ {
		ka.Send("b", 400, &Message{Port: "seq", Data: i})
	}
	s.RunFor(50 * sim.Millisecond)
	kb.Suspend(func() {})
	for i := 3; i < 8; i++ {
		ka.Send("b", 400, &Message{Port: "seq", Data: i})
	}
	s.RunFor(100 * sim.Millisecond)
	kb.Resume(nil)
	s.Run()
	if len(got) != 8 {
		t.Fatalf("received %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken: %v", got)
		}
	}
}

func TestTxQueueVisibility(t *testing.T) {
	s, ka, _ := kernelPair(3)
	ka.Suspend(func() {})
	s.RunFor(20 * sim.Millisecond)
	for i := 0; i < 5; i++ {
		ka.Send("b", 100, &Message{Port: "x"})
	}
	// The tx softirq is frozen: all but the in-service packet queue up.
	if ka.TxQueueLen() < 4 {
		t.Fatalf("tx queue = %d", ka.TxQueueLen())
	}
	ka.Resume(nil)
	s.Run()
	if ka.TxQueueLen() != 0 {
		t.Fatal("tx queue not drained after resume")
	}
}

func TestDilatedKernelSleep(t *testing.T) {
	s, k := newKernel(4)
	k.P.WakeupJitterMean = 0
	k.P.WakeupJitterStddev = 0
	k.Clock.SetDilation(2)
	var wokeVirtual, wokeReal sim.Time
	k.Usleep(10*sim.Millisecond, func() {
		wokeVirtual, wokeReal = k.Monotonic(), s.Now()
	})
	s.Run()
	if wokeVirtual != 20*sim.Millisecond {
		t.Fatalf("virtual wake at %v, want 20ms (tick semantics unchanged)", wokeVirtual)
	}
	if wokeReal != 40*sim.Millisecond {
		t.Fatalf("real wake at %v, want 40ms under 2x dilation", wokeReal)
	}
}

func TestOfflineRunstateDuringCheckpoint(t *testing.T) {
	s, k := newKernel(5)
	s.RunFor(sim.Second)
	k.Suspend(func() {})
	if got := k.Clock.RunstateSnapshot(); got.Time[vclock.Offline] != 0 {
		// Offline time is never *accumulated* (accounting is frozen),
		// it is only the state label during the checkpoint.
		t.Fatalf("offline accumulated %v while frozen", got.Time[vclock.Offline])
	}
	s.RunFor(sim.Second)
	k.Resume(nil)
	s.RunFor(sim.Second)
}

func TestForceDirtyBypassesWSSCap(t *testing.T) {
	d := DirtyTracker{PageSize: 4096, Resident: 50000, MaxResident: 65536, ActiveWSS: 12000}
	d.Touch(20000)
	if d.Dirty() != 12000 {
		t.Fatalf("touch not WSS-capped: %d", d.Dirty())
	}
	d.ForceDirty(30000)
	if d.Dirty() != 42000 {
		t.Fatalf("force dirty = %d", d.Dirty())
	}
	// Touch must not claw back force-dirtied pages.
	d.Touch(100)
	if d.Dirty() != 42000 {
		t.Fatalf("touch reduced dirty to %d", d.Dirty())
	}
	d.ForceDirty(1 << 30)
	if d.Dirty() != 50000 {
		t.Fatalf("force dirty exceeded resident: %d", d.Dirty())
	}
}

func TestGrowCapsAtGuestMemory(t *testing.T) {
	d := DirtyTracker{PageSize: 4096, Resident: 65000, MaxResident: 65536, ActiveWSS: 0}
	d.Grow(10000)
	if d.Resident != 65536 {
		t.Fatalf("resident = %d", d.Resident)
	}
}
