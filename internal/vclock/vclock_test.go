package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"

	"emucheck/internal/sim"
)

func TestVirtualTracksRealWhileRunning(t *testing.T) {
	s := sim.New(1)
	s.RunFor(5 * sim.Second)
	c := New(s, 0)
	s.RunFor(3 * sim.Second)
	if got := c.SystemTime(); got != 3*sim.Second {
		t.Fatalf("system time = %v, want 3s", got)
	}
}

func TestFreezeStopsTime(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	s.RunFor(sim.Second)
	c.Freeze(0)
	before := c.SystemTime()
	s.RunFor(10 * sim.Second)
	if c.SystemTime() != before {
		t.Fatal("time advanced while frozen")
	}
	c.Thaw(0)
	if got := c.SystemTime(); got != sim.Second {
		t.Fatalf("after thaw = %v, want 1s", got)
	}
	s.RunFor(sim.Second)
	if got := c.SystemTime(); got != 2*sim.Second {
		t.Fatalf("resumed time = %v, want 2s", got)
	}
}

func TestLeakIsObservable(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	s.RunFor(sim.Second)
	c.Freeze(50 * sim.Microsecond)
	s.RunFor(sim.Second)
	c.Thaw(30 * sim.Microsecond)
	want := sim.Second + 80*sim.Microsecond
	if got := c.SystemTime(); got != want {
		t.Fatalf("post-thaw time = %v, want %v", got, want)
	}
	if c.LeakTotal() != 80*sim.Microsecond {
		t.Fatalf("leak total = %v", c.LeakTotal())
	}
	if c.Freezes() != 1 {
		t.Fatal("freeze count")
	}
}

func TestWallClockUsesEpoch(t *testing.T) {
	s := sim.New(1)
	epoch := sim.Time(1_234_000_000_000)
	c := New(s, epoch)
	s.RunFor(sim.Second)
	if got := c.WallClock(); got != epoch+sim.Second {
		t.Fatalf("wall = %v", got)
	}
}

func TestGettimeofdayMicrosecondResolution(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	s.RunFor(1500) // 1.5 us
	if got := c.Gettimeofday(); got != sim.Microsecond {
		t.Fatalf("gettimeofday = %v, want 1us", got)
	}
}

func TestTSCGating(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	s.RunFor(sim.Second)
	v1 := c.ReadTSC()
	if v1 != 3_000_000_000 {
		t.Fatalf("TSC after 1s = %d, want 3e9", v1)
	}
	c.Freeze(0)
	s.RunFor(sim.Second)
	if got := c.ReadTSC(); got != v1 {
		t.Fatal("TSC advanced while gated")
	}
	if c.TSCGateHits() != 1 {
		t.Fatalf("gate hits = %d", c.TSCGateHits())
	}
	c.Thaw(0)
}

func TestDoubleFreezePanics(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	c.Freeze(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Freeze(0)
}

func TestThawRunningPanics(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Thaw(0)
}

func TestNegativeLeakClamped(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	s.RunFor(sim.Second)
	c.Freeze(-5)
	c.Thaw(-5)
	if c.SystemTime() != sim.Second {
		t.Fatal("negative leak changed time")
	}
}

func TestRunstateAccounting(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	c.SetRunstate(Running)
	s.RunFor(2 * sim.Second)
	c.SetRunstate(Blocked)
	s.RunFor(sim.Second)
	rs := c.RunstateSnapshot()
	if rs.Time[Running] != 2*sim.Second {
		t.Fatalf("running = %v", rs.Time[Running])
	}
	if rs.Time[Blocked] != sim.Second {
		t.Fatalf("blocked = %v", rs.Time[Blocked])
	}
}

func TestRunstateSuspendedDuringFreeze(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	c.SetRunstate(Running)
	s.RunFor(sim.Second)
	c.Freeze(0)
	s.RunFor(10 * sim.Second) // checkpoint interval: must not be charged
	c.Thaw(0)
	s.RunFor(sim.Second)
	rs := c.RunstateSnapshot()
	if rs.Time[Running] != 2*sim.Second {
		t.Fatalf("running = %v, want 2s (checkpoint concealed)", rs.Time[Running])
	}
}

func TestSerializeRequiresFrozen(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	if _, err := c.Serialize(); err == nil {
		t.Fatal("serialized a running clock")
	}
}

func TestSerializeRestoreRoundTrip(t *testing.T) {
	s := sim.New(1)
	c := New(s, 7*sim.Hour)
	s.RunFor(90 * sim.Second)
	c.Freeze(0)
	st, err := c.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	// Restore much later (swap-in after hours of real time).
	s.RunFor(2 * sim.Hour)
	c2 := Restore(s, st)
	if !c2.Frozen() {
		t.Fatal("restored clock running")
	}
	if c2.SystemTime() != 90*sim.Second {
		t.Fatalf("restored time = %v", c2.SystemTime())
	}
	c2.Thaw(0)
	s.RunFor(sim.Second)
	if c2.SystemTime() != 91*sim.Second {
		t.Fatalf("resumed = %v, want 91s (swap interval concealed)", c2.SystemTime())
	}
	if c2.WallClock() != 7*sim.Hour+91*sim.Second {
		t.Fatalf("wall = %v", c2.WallClock())
	}
}

// Property: across any sequence of freeze/thaw cycles with arbitrary
// durations, virtual elapsed time equals running real time plus the sum
// of leaks — the checkpoint interval itself never appears.
func TestPropertyTransparency(t *testing.T) {
	f := func(runs []uint16, freezes []uint16) bool {
		s := sim.New(2)
		c := New(s, 0)
		var running, leaks sim.Time
		n := len(runs)
		if len(freezes) < n {
			n = len(freezes)
		}
		for i := 0; i < n; i++ {
			r := sim.Time(runs[i]) * sim.Microsecond
			s.RunFor(r)
			running += r
			c.Freeze(sim.Microsecond)
			s.RunFor(sim.Time(freezes[i]) * sim.Millisecond)
			c.Thaw(sim.Microsecond)
			leaks += 2 * sim.Microsecond
		}
		return c.SystemTime() == running+leaks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDilationSlowsVirtualTime(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	s.RunFor(sim.Second)
	c.SetDilation(2) // guest perceives a 2x faster world
	s.RunFor(2 * sim.Second)
	// 1 s at rate 1 plus 2 s at rate 1/2 = 2 s virtual.
	if got := c.SystemTime(); got != 2*sim.Second {
		t.Fatalf("dilated time = %v, want 2s", got)
	}
	if c.Dilation() != 2 {
		t.Fatal("dilation factor")
	}
}

func TestDilationContinuousAcrossChange(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	s.RunFor(sim.Second)
	before := c.SystemTime()
	c.SetDilation(10)
	if got := c.SystemTime(); got != before {
		t.Fatalf("dilation change jumped the clock: %v -> %v", before, got)
	}
	c.SetDilation(1)
	s.RunFor(sim.Second)
	if got := c.SystemTime(); got != before+sim.Second {
		t.Fatalf("after restore = %v", got)
	}
}

func TestDilationAcrossFreeze(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	c.SetDilation(2)
	s.RunFor(2 * sim.Second) // 1 s virtual
	c.Freeze(0)
	s.RunFor(10 * sim.Second)
	c.Thaw(0)
	s.RunFor(2 * sim.Second) // +1 s virtual
	if got := c.SystemTime(); got != 2*sim.Second {
		t.Fatalf("dilated+frozen time = %v, want 2s", got)
	}
}

func TestDilationConversions(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	c.SetDilation(4)
	if got := c.ToReal(sim.Second); got != 4*sim.Second {
		t.Fatalf("ToReal = %v", got)
	}
	if got := c.ToVirtual(4 * sim.Second); got != sim.Second {
		t.Fatalf("ToVirtual = %v", got)
	}
}

func TestNonPositiveDilationPanics(t *testing.T) {
	s := sim.New(1)
	c := New(s, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.SetDilation(0)
}

// TestSystemTimeIntegerPathMatchesFloat holds SystemTime and Freeze at
// dilation 1, which skip the float divide, to the divide they replaced,
// on random anchors and times below 2^53 ns, frozen and thawed.
func TestSystemTimeIntegerPathMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := sim.New(1)
	c := New(s, 0)
	viaFloat := func() sim.Time {
		return c.anchorVirtual + sim.Time(float64(s.Now()-c.anchorReal)/c.dilation)
	}
	for i := 0; i < 2000; i++ {
		// Time reaches about 2^51 ns; anchors keep the sum below 2^53.
		s.RunFor(sim.Time(rng.Int63n(1 << 41)))
		c.anchorReal = sim.Time(rng.Int63n(int64(s.Now()) + 1))
		c.anchorVirtual = sim.Time(rng.Int63n(1 << 52))
		if got, want := c.SystemTime(), viaFloat(); got != want {
			t.Fatalf("running: SystemTime %d, float path %d", got, want)
		}
		leak := sim.Time(rng.Int63n(int64(sim.Millisecond)))
		want := viaFloat() + leak
		c.Freeze(leak)
		if got := c.SystemTime(); got != want {
			t.Fatalf("frozen: SystemTime %d, float path %d", got, want)
		}
		s.RunFor(sim.Time(rng.Int63n(int64(sim.Second))))
		c.Thaw(leak)
		s.RunFor(sim.Time(rng.Int63n(int64(sim.Second))))
		if got, want := c.SystemTime(), viaFloat(); got != want {
			t.Fatalf("thawed: SystemTime %d, float path %d", got, want)
		}
	}
}
