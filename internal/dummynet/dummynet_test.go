package dummynet

import (
	"testing"
	"testing/quick"

	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

type sink struct {
	times []sim.Time
	pkts  []*simnet.Packet
	s     *sim.Simulator
}

func (k *sink) Accept(p *simnet.Packet) {
	k.times = append(k.times, k.s.Now())
	k.pkts = append(k.pkts, p)
}

func TestPipeDelayOnly(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	p := NewPipe(s, "p", 0, 10*sim.Millisecond, k)
	p.Accept(&simnet.Packet{Size: 1500})
	s.Run()
	if len(k.times) != 1 || k.times[0] != 10*sim.Millisecond {
		t.Fatalf("emit at %v", k.times)
	}
}

func TestPipeBandwidthStage(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	// 100 Mbps, no delay: 1250B takes 100us.
	p := NewPipe(s, "p", 100*simnet.Mbps, 0, k)
	p.Accept(&simnet.Packet{Size: 1250})
	p.Accept(&simnet.Packet{Size: 1250})
	s.Run()
	if len(k.times) != 2 {
		t.Fatalf("emitted %d", len(k.times))
	}
	if k.times[0] != 100*sim.Microsecond || k.times[1] != 200*sim.Microsecond {
		t.Fatalf("times %v", k.times)
	}
}

func TestPipeBandwidthPlusDelay(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	p := NewPipe(s, "p", 100*simnet.Mbps, 5*sim.Millisecond, k)
	p.Accept(&simnet.Packet{Size: 1250})
	s.Run()
	want := 100*sim.Microsecond + 5*sim.Millisecond
	if k.times[0] != want {
		t.Fatalf("emit %v, want %v", k.times[0], want)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	p := NewPipe(s, "p", 1*simnet.Mbps, 0, k)
	p.Slots = 3
	for i := 0; i < 10; i++ {
		p.Accept(&simnet.Packet{Size: 1500})
	}
	if p.Dropped != 7 {
		t.Fatalf("dropped = %d, want 7", p.Dropped)
	}
	s.Run()
	if len(k.pkts) != 3 {
		t.Fatalf("emitted %d", len(k.pkts))
	}
}

func TestPLRDrops(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	p := NewPipe(s, "p", 0, 0, k)
	p.PLR = 1
	for i := 0; i < 5; i++ {
		p.Accept(&simnet.Packet{Size: 100})
	}
	s.Run()
	if p.PLRDrops != 5 || len(k.pkts) != 0 {
		t.Fatalf("plr drops = %d, emitted = %d", p.PLRDrops, len(k.pkts))
	}
}

func TestFreezeHoldsPackets(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	p := NewPipe(s, "p", 0, 20*sim.Millisecond, k)
	p.Accept(&simnet.Packet{Size: 100})
	s.RunFor(5 * sim.Millisecond)
	p.Freeze()
	if p.InFlight() != 1 {
		t.Fatalf("in flight = %d", p.InFlight())
	}
	// Let "real" time pass: a 50 ms checkpoint.
	s.RunFor(50 * sim.Millisecond)
	if len(k.pkts) != 0 {
		t.Fatal("packet escaped during freeze")
	}
	p.Thaw()
	s.Run()
	// Remaining delay was 15 ms; it should emit 15 ms after the thaw
	// (at 5+50+15 = 70 ms), i.e. the packet observed exactly 20 ms of
	// "virtual" link delay.
	if k.times[0] != 70*sim.Millisecond {
		t.Fatalf("emit at %v, want 70ms", k.times[0])
	}
}

func TestFreezeMidTransmissionResumesExactly(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	// 1250B at 10 Mbps = 1 ms tx time.
	p := NewPipe(s, "p", 10*simnet.Mbps, 0, k)
	p.Accept(&simnet.Packet{Size: 1250})
	s.RunFor(400 * sim.Microsecond) // 600 us of tx remain
	p.Freeze()
	s.RunFor(100 * sim.Millisecond)
	p.Thaw()
	s.Run()
	want := 400*sim.Microsecond + 100*sim.Millisecond + 600*sim.Microsecond
	if k.times[0] != want {
		t.Fatalf("emit at %v, want %v", k.times[0], want)
	}
}

func TestAcceptWhileFrozenQueues(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	p := NewPipe(s, "p", 100*simnet.Mbps, 0, k)
	p.Freeze()
	p.Accept(&simnet.Packet{Size: 1250})
	s.RunFor(sim.Millisecond)
	if len(k.pkts) != 0 {
		t.Fatal("frozen pipe emitted")
	}
	p.Thaw()
	s.Run()
	if len(k.pkts) != 1 {
		t.Fatal("queued packet lost across freeze")
	}
}

// A frozen pipe queues every arrival of the skew window, past Slots,
// and emits them all after Thaw; the bound applies again to arrivals
// after Thaw.
func TestFrozenPipeKeepsSkewArrivalsPastSlots(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	p := NewPipe(s, "p", 100*simnet.Mbps, 0, k)
	p.Slots = 2
	p.Freeze()
	for i := 0; i < 5; i++ {
		p.Accept(&simnet.Packet{Size: 1250})
	}
	if p.Dropped != 0 || p.QueueLen() != 5 {
		t.Fatalf("frozen pipe: %d dropped, %d queued; want 0 and 5", p.Dropped, p.QueueLen())
	}
	if st, _ := p.Serialize(); len(st.Queue) != 5 {
		t.Fatalf("snapshot holds %d queued packets, want 5", len(st.Queue))
	}
	p.Thaw()
	p.Accept(&simnet.Packet{Size: 1250})
	if p.Dropped != 1 {
		t.Fatalf("thawed pipe over its bound: %d dropped, want 1", p.Dropped)
	}
	s.Run()
	if len(k.pkts) != 5 {
		t.Fatalf("emitted %d packets, want 5", len(k.pkts))
	}
}

func TestSerializeRequiresFrozen(t *testing.T) {
	s := sim.New(1)
	p := NewPipe(s, "p", 0, 0, nil)
	if _, err := p.Serialize(); err == nil {
		t.Fatal("serialize of running pipe succeeded")
	}
}

func TestSerializeRestoreRoundTrip(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	p := NewPipe(s, "p", 10*simnet.Mbps, 30*sim.Millisecond, k)
	// Fill: two in delay line, one transmitting, two queued.
	for i := 0; i < 5; i++ {
		p.Accept(&simnet.Packet{Size: 1250, Dst: "b"}) // 1 ms tx each
	}
	s.RunFor(2500 * sim.Microsecond) // 2 fully transmitted, 3rd halfway
	p.Freeze()
	st, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.DelayLine) != 2 {
		t.Fatalf("delay line captured %d, want 2", len(st.DelayLine))
	}
	if len(st.Queue) != 3 {
		t.Fatalf("queue captured %d, want 3", len(st.Queue))
	}
	if st.HeadTxLeft != 500*sim.Microsecond {
		t.Fatalf("head tx left %v, want 500us", st.HeadTxLeft)
	}
	if st.Bytes() <= 0 {
		t.Fatal("state size")
	}

	// Restore into a fresh pipe on a fresh simulator ("swap-in on a
	// different machine") and verify all 5 packets eventually emerge.
	s2 := sim.New(2)
	k2 := &sink{s: s2}
	p2 := NewPipe(s2, "p", 10*simnet.Mbps, 30*sim.Millisecond, k2)
	p2.Restore(st)
	p2.Thaw()
	s2.Run()
	if len(k2.pkts) != 5 {
		t.Fatalf("restored pipe emitted %d, want 5", len(k2.pkts))
	}
	// First delay-line packet had 30-2.5+1 = 28.5ms remaining... verify
	// order preserved and stats carried over.
	if p2.Enqueued != 5 {
		t.Fatalf("stats not restored: %d", p2.Enqueued)
	}
	for i := 1; i < len(k2.times); i++ {
		if k2.times[i] < k2.times[i-1] {
			t.Fatal("restored emission out of order")
		}
	}
}

func TestDoubleFreezeAndThawIdempotent(t *testing.T) {
	s := sim.New(1)
	p := NewPipe(s, "p", 0, sim.Millisecond, nil)
	p.Freeze()
	p.Freeze()
	p.Thaw()
	p.Thaw()
	if p.Frozen() {
		t.Fatal("still frozen")
	}
}

func TestDelayNodeDuplex(t *testing.T) {
	s := sim.New(1)
	d := NewDelayNode(s, "d0", 100*simnet.Mbps, 10*sim.Millisecond)
	ka := &sink{s: s}
	kb := &sink{s: s}
	d.AttachForward(kb)
	d.AttachReverse(ka)
	d.Forward.Accept(&simnet.Packet{Size: 1250})
	d.Reverse.Accept(&simnet.Packet{Size: 1250})
	s.Run()
	if len(ka.pkts) != 1 || len(kb.pkts) != 1 {
		t.Fatalf("delivered fwd=%d rev=%d", len(kb.pkts), len(ka.pkts))
	}
	want := 100*sim.Microsecond + 10*sim.Millisecond
	if ka.times[0] != want || kb.times[0] != want {
		t.Fatalf("times %v %v, want %v", ka.times[0], kb.times[0], want)
	}
}

func TestDelayNodeCheckpointCapturesBandwidthDelayProduct(t *testing.T) {
	s := sim.New(1)
	// 1 Gbps x 20 ms: BDP = 2.5 MB ~ 1666 packets of 1500B. Send a
	// window of 100 packets and freeze mid-flight.
	d := NewDelayNode(s, "d0", simnet.Gbps, 20*sim.Millisecond)
	d.Forward.Slots = 200 // deep queue so the whole burst is admitted
	k := &sink{s: s}
	d.AttachForward(k)
	for i := 0; i < 100; i++ {
		d.Forward.Accept(&simnet.Packet{Size: 1500})
	}
	s.RunFor(10 * sim.Millisecond) // all transmitted (1.2ms), none emitted
	d.Freeze()
	if got := d.InFlight(); got != 100 {
		t.Fatalf("captured %d in flight, want 100", got)
	}
	st, err := d.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Forward.DelayLine) != 100 {
		t.Fatalf("serialized %d", len(st.Forward.DelayLine))
	}
	if st.Bytes() < 100*1500 {
		t.Fatalf("state bytes %d too small", st.Bytes())
	}
	d.Thaw()
	s.Run()
	if len(k.pkts) != 100 {
		t.Fatalf("emitted %d after thaw", len(k.pkts))
	}
}

func TestDelayNodeRestore(t *testing.T) {
	s := sim.New(1)
	d := NewDelayNode(s, "d0", 100*simnet.Mbps, 5*sim.Millisecond)
	k := &sink{s: s}
	d.AttachForward(k)
	d.Forward.Accept(&simnet.Packet{Size: 1250})
	s.RunFor(2 * sim.Millisecond)
	d.Freeze()
	st, err := d.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	d2 := NewDelayNode(s, "d0", 100*simnet.Mbps, 5*sim.Millisecond)
	k2 := &sink{s: s}
	d2.AttachForward(k2)
	d2.Restore(st)
	d2.Thaw()
	s.Run()
	if len(k2.pkts) != 1 {
		t.Fatal("restored node lost packet")
	}
}

// Property: under any load pattern, enqueued = emitted + still-inside +
// drops, and a freeze/thaw cycle never changes the invariant.
func TestPropertyPacketConservation(t *testing.T) {
	f := func(sizes []uint16, freezePoint uint8) bool {
		s := sim.New(5)
		k := &sink{s: s}
		p := NewPipe(s, "p", 50*simnet.Mbps, 3*sim.Millisecond, k)
		p.Slots = 10
		for _, raw := range sizes {
			size := int(raw%1500) + 64
			p.Accept(&simnet.Packet{Size: size})
		}
		s.RunFor(sim.Time(freezePoint) * 100 * sim.Microsecond)
		p.Freeze()
		s.RunFor(30 * sim.Millisecond)
		p.Thaw()
		s.Run()
		inside := uint64(p.QueueLen() + p.InFlight())
		return p.Enqueued == uint64(len(k.pkts))+inside && inside == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: total pipe traversal time of every packet (ignoring frozen
// interval) equals bandwidth-stage wait plus the configured delay;
// i.e. shaping is work-conserving and delay-accurate across checkpoints.
func TestPropertyDelayAccurateAcrossFreeze(t *testing.T) {
	f := func(nPkts uint8, freezeMs uint8) bool {
		n := int(nPkts%20) + 1
		s := sim.New(6)
		k := &sink{s: s}
		p := NewPipe(s, "p", 0, 10*sim.Millisecond, k) // pure delay
		for i := 0; i < n; i++ {
			p.Accept(&simnet.Packet{Size: 100})
		}
		s.RunFor(4 * sim.Millisecond)
		p.Freeze()
		frozenFor := sim.Time(freezeMs) * sim.Millisecond
		s.RunFor(frozenFor)
		p.Thaw()
		s.Run()
		if len(k.times) != n {
			return false
		}
		for _, ti := range k.times {
			// Observed = 10 ms + frozen interval; virtual = 10 ms.
			if ti-frozenFor != 10*sim.Millisecond {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// checkpointedStream sends 30 numbered 1 ms packets through a pipe
// with 5 ms of delay, so emitted delay-line slots are recycled for
// later packets, and checkpoints the pipe at 20.5 ms for 50 ms. With
// restore set, the frozen pipe is serialized and restored into itself
// before the thaw. It returns each packet's emission time by ID.
func checkpointedStream(t *testing.T, restore bool) map[uint64]sim.Time {
	t.Helper()
	s := sim.New(1)
	got := map[uint64]sim.Time{}
	out := simnet.PortFunc(func(pkt *simnet.Packet) {
		if _, dup := got[pkt.ID]; dup {
			t.Fatalf("packet %d emitted twice", pkt.ID)
		}
		got[pkt.ID] = s.Now()
	})
	p := NewPipe(s, "p", 10*simnet.Mbps, 5*sim.Millisecond, out)
	for i := 0; i < 30; i++ {
		p.Accept(&simnet.Packet{ID: uint64(i), Size: 1250})
	}
	s.RunUntil(20500 * sim.Microsecond)
	p.Freeze()
	st, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range st.DelayLine {
		want := sim.Time(2*i+1) * 500 * sim.Microsecond
		if d.Packet.ID != uint64(15+i) || d.RemainingDelay != want {
			t.Fatalf("delay line %d: packet %d with %v left, want packet %d with %v",
				i, d.Packet.ID, d.RemainingDelay, 15+i, want)
		}
	}
	if len(st.DelayLine) != 5 || len(st.Queue) != 10 || st.HeadTxLeft != 500*sim.Microsecond {
		t.Fatalf("captured %d in flight, %d queued, head %v left; want 5, 10, 500us",
			len(st.DelayLine), len(st.Queue), st.HeadTxLeft)
	}
	s.RunFor(50 * sim.Millisecond)
	if restore {
		p.Restore(st)
	}
	p.Thaw()
	s.Run()
	return got
}

// TestCheckpointAfterSlotReuseKeepsDelays checks freeze, serialize,
// restore and thaw keep every in-flight packet's remaining delay once
// the delay line has recycled its slots: the checkpoint shifts every
// later emission by exactly its 50 ms and nothing else.
func TestCheckpointAfterSlotReuseKeepsDelays(t *testing.T) {
	for _, restore := range []bool{false, true} {
		got := checkpointedStream(t, restore)
		if len(got) != 30 {
			t.Fatalf("restore=%v: emitted %d packets, want 30", restore, len(got))
		}
		for id, at := range got {
			want := sim.Time(id+6) * sim.Millisecond
			if id >= 15 {
				want += 50 * sim.Millisecond
			}
			if at != want {
				t.Fatalf("restore=%v: packet %d emitted at %v, want %v", restore, id, at, want)
			}
		}
	}
}

// TestDelayChangeInFlightEmitsOnce shrinks the delay while a packet is
// in flight, so later packets leave the delay line before its head,
// across a checkpoint too. Every packet must still leave exactly once,
// at its own time.
func TestDelayChangeInFlightEmitsOnce(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	p := NewPipe(s, "p", 0, 10*sim.Millisecond, k)
	a, b, c := &simnet.Packet{ID: 1}, &simnet.Packet{ID: 2}, &simnet.Packet{ID: 3}
	p.Accept(a)
	s.RunUntil(sim.Millisecond)
	p.Delay = 2 * sim.Millisecond
	p.Accept(b)
	p.Accept(c)
	s.RunUntil(2 * sim.Millisecond)
	p.Freeze()
	s.RunFor(5 * sim.Millisecond)
	p.Thaw()
	s.Run()
	want := []struct {
		pkt *simnet.Packet
		at  sim.Time
	}{{b, 8 * sim.Millisecond}, {c, 8 * sim.Millisecond}, {a, 15 * sim.Millisecond}}
	if len(k.pkts) != len(want) {
		t.Fatalf("emitted %d packets, want %d", len(k.pkts), len(want))
	}
	for i, w := range want {
		if k.pkts[i] != w.pkt || k.times[i] != w.at {
			t.Fatalf("emission %d: packet %d at %v, want packet %d at %v",
				i, k.pkts[i].ID, k.times[i], w.pkt.ID, w.at)
		}
	}
	if p.InFlight() != 0 || p.Emitted != 3 {
		t.Fatalf("in flight %d, emitted %d after drain", p.InFlight(), p.Emitted)
	}
}

// TestPipeAcceptEmitAllocs pins the steady-state cost of shaping a
// packet: once a delay-line slot is free, an Accept→emit cycle through
// the bandwidth stage and the delay line allocates nothing.
func TestPipeAcceptEmitAllocs(t *testing.T) {
	s := sim.New(1)
	p := NewPipe(s, "p", simnet.Gbps, sim.Millisecond, simnet.PortFunc(func(*simnet.Packet) {}))
	pkt := &simnet.Packet{Size: 1500}
	p.Accept(pkt)
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		p.Accept(pkt)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("Accept→emit allocates %.1f per packet, want 0", allocs)
	}
}
