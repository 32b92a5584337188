package guest

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"emucheck/internal/node"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

func newKernel(seed int64) (*sim.Simulator, *Kernel) {
	s := sim.New(seed)
	p := node.DefaultParams()
	m := node.NewMachine(s, "n0", p)
	return s, New(m, p, DefaultConfig())
}

func kernelPair(seed int64) (*sim.Simulator, *Kernel, *Kernel) {
	s := sim.New(seed)
	p := node.DefaultParams()
	ma := node.NewMachine(s, "a", p)
	mb := node.NewMachine(s, "b", p)
	ka := New(ma, p, DefaultConfig())
	kb := New(mb, p, DefaultConfig())
	ma.ExpNIC.Attach(simnet.NewWire(s, sim.Microsecond, mb.ExpNIC))
	mb.ExpNIC.Attach(simnet.NewWire(s, sim.Microsecond, ma.ExpNIC))
	return s, ka, kb
}

func TestUsleepTickRounding(t *testing.T) {
	s, k := newKernel(1)
	// Deterministic check with zero jitter.
	k.P.WakeupJitterMean = 0
	k.P.WakeupJitterStddev = 0
	var woke sim.Time
	k.Usleep(10*sim.Millisecond, func() { woke = k.Monotonic() })
	s.Run()
	// HZ=100: 10 ms sleep wakes at the tick strictly after 10 ms = 20 ms.
	if woke != 20*sim.Millisecond {
		t.Fatalf("woke at %v, want 20ms", woke)
	}
}

func TestUsleepLoopPhaseLock(t *testing.T) {
	s, k := newKernel(1)
	k.P.WakeupJitterMean = 0
	k.P.WakeupJitterStddev = 0
	var iters []sim.Time
	prev := sim.Time(0)
	var loop func()
	n := 0
	loop = func() {
		now := k.Gettimeofday()
		if n > 0 {
			iters = append(iters, now-prev)
		}
		prev = now
		n++
		if n < 20 {
			k.Usleep(10*sim.Millisecond, loop)
		}
	}
	loop()
	s.Run()
	// After phase lock every iteration is exactly 20 ms (Fig. 4 base).
	for i, d := range iters[1:] {
		if d != 20*sim.Millisecond {
			t.Fatalf("iteration %d = %v, want 20ms", i, d)
		}
	}
}

func TestComputeChargesCPUAndDirtiesPages(t *testing.T) {
	s, k := newKernel(1)
	before := k.Dirty.Dirty()
	var done sim.Time
	k.Compute(100*sim.Millisecond, "job", func() { done = s.Now() })
	s.Run()
	if done != 100*sim.Millisecond {
		t.Fatalf("done at %v", done)
	}
	if k.Dirty.Dirty() <= before {
		t.Fatal("compute did not dirty pages")
	}
}

func TestSendReceive(t *testing.T) {
	s, ka, kb := kernelPair(1)
	var got *Message
	var from simnet.Addr
	kb.Handle("echo", func(f simnet.Addr, m *Message) { got, from = m, f })
	ka.Send("b", 1500, &Message{Port: "echo", Data: "hi"})
	s.Run()
	if got == nil || got.Data != "hi" || from != "a" {
		t.Fatalf("got %+v from %s", got, from)
	}
	if ka.SentPackets != 1 || kb.RcvdPackets != 1 {
		t.Fatal("packet counters")
	}
}

func TestSendMessageTwicePanics(t *testing.T) {
	s, ka, _ := kernelPair(1)
	m := &Message{Port: "echo"}
	ka.Send("b", 100, m)
	s.Run()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "sent twice") {
			t.Fatalf("second send of one message: recovered %v, want a sent-twice panic", r)
		}
	}()
	ka.Send("b", 100, m)
}

// TestZeroedMessageSendsAgain holds the recycling contract: once its
// port handler has returned, a sender may zero a delivered message and
// send it again.
func TestZeroedMessageSendsAgain(t *testing.T) {
	s, ka, kb := kernelPair(1)
	kb.Handle("echo", func(simnet.Addr, *Message) {})
	m := &Message{Port: "echo"}
	for range 2 {
		ka.Send("b", 100, m)
		s.Run()
		*m = Message{Port: "echo"}
	}
	if kb.RcvdPackets != 2 {
		t.Fatalf("%d packets received, want 2", kb.RcvdPackets)
	}
}

type pinFlag bool

func (p *pinFlag) Pin() { *p = true }

// TestMessagePinForwardsToData checks that pinning a message pins its
// Data, the part a sender may recycle, and ignores Data that cannot be
// pinned.
func TestMessagePinForwardsToData(t *testing.T) {
	var p pinFlag
	(&Message{Data: &p}).Pin()
	if !p {
		t.Fatal("Pin did not reach the message's Data")
	}
	(&Message{Data: "not a pinner"}).Pin()
}

// TestSendMessageAllocs holds a send of a fresh message, delivered end
// to end, to the one allocation of the message itself: its packet is
// embedded in it.
func TestSendMessageAllocs(t *testing.T) {
	s, ka, kb := kernelPair(1)
	kb.Handle("echo", func(simnet.Addr, *Message) {})
	allocs := testing.AllocsPerRun(100, func() {
		ka.Send("b", 100, &Message{Port: "echo"})
		s.Run()
	})
	if allocs != 1 {
		t.Fatalf("%.2f allocations per send, want 1", allocs)
	}
}

func TestSendUnknownPortIgnored(t *testing.T) {
	s, ka, kb := kernelPair(1)
	ka.Send("b", 100, &Message{Port: "nope"})
	s.Run()
	if kb.RcvdPackets != 1 {
		t.Fatal("packet not received at kernel level")
	}
}

func TestTxPathStallsDuringSuspend(t *testing.T) {
	s, ka, kb := kernelPair(1)
	recv := 0
	kb.Handle("p", func(simnet.Addr, *Message) { recv++ })
	if err := ka.Suspend(func() {}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time10ms())
	ka.Send("b", 1000, &Message{Port: "p"}) // queued behind frozen softirq
	s.RunFor(50 * sim.Millisecond)
	if recv != 0 {
		t.Fatal("packet escaped a suspended guest")
	}
	if err := ka.Resume(nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if recv != 1 {
		t.Fatal("queued packet lost across checkpoint")
	}
}

func time10ms() sim.Time { return 10 * sim.Millisecond }

func TestReceiverFrozenLogsAndReplays(t *testing.T) {
	s, ka, kb := kernelPair(1)
	recv := 0
	kb.Handle("p", func(simnet.Addr, *Message) { recv++ })
	if err := kb.Suspend(func() {}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * sim.Millisecond)
	for i := 0; i < 4; i++ {
		ka.Send("b", 1000, &Message{Port: "p"})
	}
	s.RunFor(50 * sim.Millisecond)
	if recv != 0 {
		t.Fatal("frozen receiver processed packets")
	}
	if kb.M.ExpNIC.ReplayLogLen() != 4 {
		t.Fatalf("replay log = %d", kb.M.ExpNIC.ReplayLogLen())
	}
	if err := kb.Resume(nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if recv != 4 {
		t.Fatalf("replayed %d, want 4", recv)
	}
}

func TestDiskIO(t *testing.T) {
	s, k := newKernel(1)
	done := 0
	k.WriteDisk(0, 1<<20, func() { done++ })
	k.ReadDisk(0, 1<<20, func() { done++ })
	s.Run()
	if done != 2 {
		t.Fatalf("completed %d", done)
	}
	if k.M.Disk.WriteBytes != 1<<20 || k.M.Disk.ReadBytes != 1<<20 {
		t.Fatal("disk counters")
	}
}

func TestSuspendDrainsInflightIO(t *testing.T) {
	s, k := newKernel(1)
	ioDone := sim.Time(-1)
	suspended := sim.Time(-1)
	k.WriteDisk(0, 32<<20, func() { ioDone = s.Now() }) // ~450 ms of I/O
	s.RunFor(sim.Millisecond)
	if err := k.Suspend(func() { suspended = s.Now() }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(2 * sim.Second)
	if suspended < 0 {
		t.Fatal("suspend never completed")
	}
	// The block IRQ drained outside the firewall before quiesce...
	if k.InflightIO() != 0 {
		t.Fatal("inflight IO not drained")
	}
	// ...but the *guest continuation* stays parked until resume.
	if ioDone >= 0 {
		t.Fatal("guest continuation ran during checkpoint")
	}
	if err := k.Resume(nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if ioDone < 0 {
		t.Fatal("continuation lost")
	}
}

func TestSuspendResumeErrors(t *testing.T) {
	s, k := newKernel(1)
	if err := k.Resume(nil); err == nil {
		t.Fatal("resume of running guest succeeded")
	}
	if err := k.Suspend(func() {}); err != nil {
		t.Fatal(err)
	}
	if err := k.Suspend(func() {}); err == nil {
		t.Fatal("double suspend succeeded")
	}
	s.RunFor(sim.Second)
	if err := k.Resume(nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
}

func TestCheckpointConcealsTime(t *testing.T) {
	s, k := newKernel(1)
	s.RunFor(sim.Second)
	v0 := k.Monotonic()
	resumed := false
	if err := k.Suspend(func() {}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(10 * sim.Second) // long checkpoint
	if err := k.Resume(func() { resumed = true }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Second)
	if !resumed {
		t.Fatal("resume callback missing")
	}
	leak := k.Clock.LeakTotal()
	elapsedVirtual := k.Monotonic() - v0
	// ~1 s of running time (reconnect happens in real time while frozen)
	// plus the calibrated sub-100 µs leak; the 10 s checkpoint vanishes.
	if elapsedVirtual > sim.Second+200*sim.Microsecond {
		t.Fatalf("virtual elapsed %v; checkpoint leaked", elapsedVirtual)
	}
	if leak < 55*sim.Microsecond || leak > 90*sim.Microsecond {
		t.Fatalf("leak %v outside calibrated band", leak)
	}
}

func TestDirtyTracker(t *testing.T) {
	d := DirtyTracker{PageSize: 4096, Resident: 100}
	d.Touch(0)
	d.Touch(-5)
	if d.Dirty() != 0 {
		t.Fatal("bad touch counted")
	}
	d.Touch(50)
	if d.Dirty() != 50 {
		t.Fatalf("dirty = %d", d.Dirty())
	}
	d.TouchBytes(8192)
	if d.Dirty() != 52 {
		t.Fatalf("dirty = %d", d.Dirty())
	}
	if got := d.TakeDirty(); got != 52 {
		t.Fatalf("take = %d", got)
	}
	if d.Dirty() != 0 {
		t.Fatal("not cleared")
	}
	// Dirty never exceeds resident.
	d.Touch(1 << 20)
	if d.Dirty() > d.Resident {
		t.Fatal("dirty exceeds resident")
	}
}

func TestAccrueBackgroundDirty(t *testing.T) {
	s, k := newKernel(1)
	s.RunFor(10 * sim.Second)
	k.Dirty.TakeDirty()
	k.AccrueBackgroundDirty()
	base := k.Dirty.Dirty()
	if base <= 0 {
		t.Fatal("no background dirtying accrued")
	}
	// Idempotent at the same instant.
	k.AccrueBackgroundDirty()
	if k.Dirty.Dirty() != base {
		t.Fatal("double accrual")
	}
}

func TestMemoryImageBytes(t *testing.T) {
	_, k := newKernel(1)
	if got := k.MemoryImageBytes(); got != int64(k.Cfg.BootResident)*4096 {
		t.Fatalf("image = %d", got)
	}
}

// Property: any interleaving of sleeps and checkpoints preserves virtual
// sleep durations to within the leak bound.
func TestPropertySleepTransparency(t *testing.T) {
	f := func(ckptAtMs uint8, ckptLenMs uint8) bool {
		s, k := newKernel(17)
		k.P.WakeupJitterMean = 0
		k.P.WakeupJitterStddev = 0
		var woke sim.Time = -1
		k.Usleep(30*sim.Millisecond, func() { woke = k.Monotonic() })
		s.RunFor(sim.Time(ckptAtMs%39) * sim.Millisecond)
		if k.Suspend(func() {}) != nil {
			return false
		}
		s.RunFor(sim.Time(ckptLenMs)*sim.Millisecond + 20*sim.Millisecond)
		if k.Resume(nil) != nil {
			return false
		}
		s.Run()
		// Wake at 40 ms virtual (tick after 30 ms) ± leak.
		return woke >= 40*sim.Millisecond && woke <= 40*sim.Millisecond+100*sim.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockIOAllocs holds a guest block write through the raw disk,
// with its continuation run behind the firewall, to zero heap
// allocations at steady state: the completion comes from the kernel's
// free list and the disk queues the request by value.
func TestBlockIOAllocs(t *testing.T) {
	s, k := newKernel(1)
	completed := 0
	fn := func() { completed++ }
	var off int64
	allocs := testing.AllocsPerRun(100, func() {
		k.WriteDisk(off, 64<<10, fn)
		s.Run()
		off += 64 << 10
	})
	if completed != 101 || k.InflightIO() != 0 {
		t.Fatalf("%d continuations ran, %d requests in flight", completed, k.InflightIO())
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocations per block write, want 0", allocs)
	}
}

// TestHandleReplacesMemoedPort holds dispatch's rules across its
// last-port memo: re-registering a port replaces its handler even
// mid-flow, and a message to an unregistered port is dropped until a
// handler arrives for it.
func TestHandleReplacesMemoedPort(t *testing.T) {
	s, ka, kb := kernelPair(1)
	var got []string
	kb.Handle("p", func(simnet.Addr, *Message) { got = append(got, "old") })
	send := func(port string) {
		ka.Send("b", 100, &Message{Port: port})
		s.Run()
	}
	send("p")
	send("p")
	kb.Handle("p", func(simnet.Addr, *Message) { got = append(got, "new") })
	send("p")
	send("q")
	kb.Handle("q", func(simnet.Addr, *Message) { got = append(got, "q") })
	send("q")
	send("p")
	if want := "old old new q new"; strings.Join(got, " ") != want {
		t.Fatalf("dispatched %q, want %q", got, want)
	}
	if kb.RcvdPackets != 6 {
		t.Fatalf("received %d packets, want 6", kb.RcvdPackets)
	}
}
