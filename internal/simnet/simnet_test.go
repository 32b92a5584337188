package simnet

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"emucheck/internal/sim"
)

func pair(s *sim.Simulator, speed Bitrate, delay sim.Time) (*NIC, *NIC) {
	a := NewNIC(s, "a", speed)
	b := NewNIC(s, "b", speed)
	a.Attach(NewWire(s, delay, b))
	b.Attach(NewWire(s, delay, a))
	return a, b
}

func TestTxSerializationDelay(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 1000*Mbps, 0)
	var got sim.Time
	b.OnReceive(func(p *Packet) { got = s.Now() })
	a.Send(&Packet{Dst: "b", Size: 1500})
	s.Run()
	want := Bitrate(1000 * Mbps).TxTime(1500) // 12 us at 1 Gbps
	if got != want {
		t.Fatalf("arrival at %v, want %v", got, want)
	}
	if want != 12*sim.Microsecond {
		t.Fatalf("1500B@1Gbps = %v, want 12us", want)
	}
}

func TestBackToBackQueueing(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 100*Mbps, 0)
	var arrivals []sim.Time
	b.OnReceive(func(p *Packet) { arrivals = append(arrivals, s.Now()) })
	for i := 0; i < 3; i++ {
		a.Send(&Packet{Dst: "b", Size: 1250}) // 100 us each at 100 Mbps
	}
	s.Run()
	if len(arrivals) != 3 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	for i, want := range []sim.Time{100 * sim.Microsecond, 200 * sim.Microsecond, 300 * sim.Microsecond} {
		if arrivals[i] != want {
			t.Fatalf("arrival %d at %v, want %v", i, arrivals[i], want)
		}
	}
}

func TestPropagationDelayAdds(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 1000*Mbps, 5*sim.Millisecond)
	var got sim.Time
	b.OnReceive(func(p *Packet) { got = s.Now() })
	a.Send(&Packet{Dst: "b", Size: 1500})
	s.Run()
	want := 5*sim.Millisecond + 12*sim.Microsecond
	if got != want {
		t.Fatalf("arrival %v, want %v", got, want)
	}
}

func TestCounters(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 100*Mbps, 0)
	b.OnReceive(func(p *Packet) {})
	a.Send(&Packet{Dst: "b", Size: 1000})
	a.Send(&Packet{Dst: "b", Size: 500})
	s.Run()
	if a.TX.Packets != 2 || a.TX.Bytes != 1500 {
		t.Fatalf("tx counters: %+v", a.TX)
	}
	if b.RX.Packets != 2 || b.RX.Bytes != 1500 {
		t.Fatalf("rx counters: %+v", b.RX)
	}
}

func TestNoHandlerCountsDrop(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 100*Mbps, 0)
	a.Send(&Packet{Dst: "b", Size: 100})
	s.Run()
	if b.Dropped != 1 {
		t.Fatalf("dropped = %d", b.Dropped)
	}
}

func TestNoAttachmentCountsDrop(t *testing.T) {
	s := sim.New(1)
	n := NewNIC(s, "x", 100*Mbps)
	n.Send(&Packet{Dst: "y", Size: 100})
	if n.Dropped != 1 {
		t.Fatalf("dropped = %d", n.Dropped)
	}
}

func TestFreezeLogsAndThawReplaysInOrder(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 1000*Mbps, 0)
	var got []uint64
	b.OnReceive(func(p *Packet) { got = append(got, p.ID) })
	b.Freeze()
	for i := 0; i < 5; i++ {
		a.Send(&Packet{Dst: "b", Size: 1500})
	}
	s.Run()
	if len(got) != 0 {
		t.Fatal("frozen NIC delivered packets")
	}
	if b.ReplayLogLen() != 5 {
		t.Fatalf("replay log = %d", b.ReplayLogLen())
	}
	b.Thaw()
	s.Run()
	if len(got) != 5 {
		t.Fatalf("replayed %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out of order replay: %v", got)
		}
	}
}

func TestThawPreservesPerFlowOrderAcrossFlows(t *testing.T) {
	s := sim.New(1)
	recv := NewNIC(s, "r", 1000*Mbps)
	a := NewNIC(s, "a", 1000*Mbps)
	c := NewNIC(s, "c", 1000*Mbps)
	a.Attach(NewWire(s, 0, recv))
	c.Attach(NewWire(s, sim.Microsecond, recv))
	var got []*Packet
	recv.OnReceive(func(p *Packet) { got = append(got, p) })
	recv.Freeze()
	// Interleave two flows.
	for i := 0; i < 3; i++ {
		a.Send(&Packet{Dst: "r", Size: 100})
		c.Send(&Packet{Dst: "r", Size: 100})
	}
	s.Run()
	recv.Thaw()
	s.Run()
	if len(got) != 6 {
		t.Fatalf("replayed %d", len(got))
	}
	// Each source numbers its packets in send order from 1: every
	// flow must replay 1, 2, 3.
	next := map[Addr]uint64{}
	for _, p := range got {
		if next[p.Src]++; p.ID != next[p.Src] {
			t.Fatalf("packet %d from %s replayed as number %d of its flow", p.ID, p.Src, next[p.Src])
		}
	}
	if next["a"] != 3 || next["c"] != 3 {
		t.Fatalf("per-flow counts: %v", next)
	}
}

func TestReplayGapSpacing(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 1000*Mbps, 0)
	var times []sim.Time
	b.OnReceive(func(p *Packet) { times = append(times, s.Now()) })
	b.Freeze()
	b.SetReplayGap(10 * sim.Microsecond)
	for i := 0; i < 3; i++ {
		a.Send(&Packet{Dst: "b", Size: 1500})
	}
	s.Run()
	b.Thaw()
	s.Run()
	if len(times) != 3 {
		t.Fatalf("got %d", len(times))
	}
	if d := times[1] - times[0]; d != 10*sim.Microsecond {
		t.Fatalf("gap = %v", d)
	}
}

func TestWireLossAllOrNothing(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 1000*Mbps, 0)
	n := 0
	b.OnReceive(func(p *Packet) { n++ })
	w := NewWire(s, 0, b)
	a.Attach(w)
	w.SetLoss(1)
	for i := 0; i < 10; i++ {
		a.Send(&Packet{Dst: "b", Size: 100})
	}
	s.Run()
	if n != 0 || w.Lost != 10 {
		t.Fatalf("loss=1 delivered %d, lost %d", n, w.Lost)
	}
	w.SetLoss(0)
	a.Send(&Packet{Dst: "b", Size: 100})
	s.Run()
	if n != 1 {
		t.Fatal("loss=0 dropped a packet")
	}
	w.SetLoss(-5)
	if w.loss != 0 {
		t.Fatal("negative loss not clamped")
	}
	w.SetLoss(7)
	if w.loss != 1 {
		t.Fatal("loss > 1 not clamped")
	}
}

func TestSwitchForwarding(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, 2*sim.Microsecond)
	a := NewNIC(s, "a", 100*Mbps)
	b := NewNIC(s, "b", 100*Mbps)
	a.Attach(sw)
	b.Attach(sw)
	sw.Connect("a", a)
	sw.Connect("b", b)
	var got sim.Time
	b.OnReceive(func(p *Packet) { got = s.Now() })
	a.Send(&Packet{Dst: "b", Size: 1250})
	s.Run()
	want := 100*sim.Microsecond + 2*sim.Microsecond
	if got != want {
		t.Fatalf("arrival %v, want %v", got, want)
	}
	if sw.Forwarded != 1 {
		t.Fatalf("forwarded = %d", sw.Forwarded)
	}
}

func TestSwitchUnknownDst(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, 0)
	a := NewNIC(s, "a", 100*Mbps)
	a.Attach(sw)
	a.Send(&Packet{Dst: "nope", Size: 100})
	s.Run()
	if sw.Unknown != 1 {
		t.Fatalf("unknown = %d", sw.Unknown)
	}
}

func TestTxTimeZeroRate(t *testing.T) {
	if Bitrate(0).TxTime(1000) != 0 {
		t.Fatal("zero rate should yield zero tx time")
	}
}

func TestPacketCloneAndString(t *testing.T) {
	p := &Packet{ID: 7, Src: "a", Dst: "b", Size: 100}
	c := p.Clone()
	c.ID = 9
	if p.ID != 7 {
		t.Fatal("clone aliased")
	}
	if p.String() == "" {
		t.Fatal("empty string")
	}
}

// Property: for any packet sizes, total received bytes equal total sent
// bytes on a loss-free path, and arrivals are monotone in time.
func TestPropertyConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := sim.New(9)
		a, b := pair(s, 100*Mbps, 3*sim.Microsecond)
		var rxBytes uint64
		last := sim.Time(-1)
		ok := true
		b.OnReceive(func(p *Packet) {
			rxBytes += uint64(p.Size)
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
		})
		var txBytes uint64
		for _, raw := range sizes {
			size := int(raw%1500) + 1
			txBytes += uint64(size)
			a.Send(&Packet{Dst: "b", Size: size})
		}
		s.Run()
		return ok && rxBytes == txBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: freeze/thaw never loses or duplicates packets.
func TestPropertyFreezeLossless(t *testing.T) {
	f := func(n uint8, freezeAfter uint8) bool {
		s := sim.New(11)
		a, b := pair(s, 1000*Mbps, 0)
		count := int(n%40) + 1
		cut := int(freezeAfter) % (count + 1)
		recv := 0
		b.OnReceive(func(p *Packet) { recv++ })
		for i := 0; i < cut; i++ {
			a.Send(&Packet{Dst: "b", Size: 500})
		}
		s.Run()
		b.Freeze()
		for i := cut; i < count; i++ {
			a.Send(&Packet{Dst: "b", Size: 500})
		}
		s.Run()
		b.Thaw()
		s.Run()
		return recv == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestNICHopsArriveAtDonePlusLatency routes one NIC's packets over two
// wires of different delay and a switch. Each packet's arrival is the
// one event its send scheduled: it must land at the transmitter's
// exit time plus the hop's latency, and each hop must deliver in send
// order, although later packets on the fast wire overtake packets on
// the slow one.
func TestNICHopsArriveAtDonePlusLatency(t *testing.T) {
	s := sim.New(1)
	a := NewNIC(s, "a", 100*Mbps)
	sw := NewSwitch(s, 2*sim.Microsecond)
	latency := map[Addr]sim.Time{"b": 3 * sim.Microsecond, "c": 50 * sim.Microsecond, "d": 2 * sim.Microsecond}
	type arrival struct {
		id uint64
		at sim.Time
	}
	got := map[Addr][]arrival{}
	for _, dst := range []Addr{"b", "c", "d"} {
		dst := dst
		n := NewNIC(s, dst, 100*Mbps)
		n.OnReceive(func(p *Packet) { got[dst] = append(got[dst], arrival{p.ID, s.Now()}) })
		if dst == "d" {
			sw.Connect(dst, n)
			a.Route(dst, sw)
		} else {
			a.Route(dst, NewWire(s, latency[dst], n))
		}
	}
	want := map[Addr][]arrival{}
	for i := 0; i < 60; i++ {
		dst := []Addr{"b", "c", "d"}[i*7%3]
		pkt := &Packet{Dst: dst, Size: 64 + i*37%1400}
		done := a.Send(pkt)
		want[dst] = append(want[dst], arrival{pkt.ID, done + latency[dst]})
		if i%9 == 0 {
			s.RunFor(30 * sim.Microsecond)
		}
	}
	if a.QueuedTx() == 0 {
		t.Fatal("nothing in flight after a burst")
	}
	s.Run()
	for dst, w := range want {
		if !slices.Equal(got[dst], w) {
			t.Fatalf("hop to %s: arrivals %v, want %v", dst, got[dst], w)
		}
	}
	if a.QueuedTx() != 0 || sw.Forwarded != uint64(len(want["d"])) {
		t.Fatalf("queued %d, forwarded %d after drain", a.QueuedTx(), sw.Forwarded)
	}
	if s.Fired() != 60 {
		t.Fatalf("%d events for 60 packets, want one each", s.Fired())
	}
	overtaken := false
	for _, c := range got["c"] {
		for _, b := range got["b"] {
			overtaken = overtaken || b.id > c.id && b.at < c.at
		}
	}
	if !overtaken {
		t.Fatal("no packet on the fast wire overtook one on the slow wire")
	}
}

// TestForwardingMemosFollowTables holds the switch's and the NIC's
// per-flow memos to their tables: re-connecting an address or
// re-routing a destination takes effect on the next packet of a flow
// already under way, and an unknown destination still drops.
func TestForwardingMemosFollowTables(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, 0)
	a := NewNIC(s, "a", 100*Mbps)
	b1, b2 := NewNIC(s, "b1", 100*Mbps), NewNIC(s, "b2", 100*Mbps)
	var got []string
	b1.OnReceive(func(*Packet) { got = append(got, "b1") })
	b2.OnReceive(func(*Packet) { got = append(got, "b2") })
	a.Route("b", sw)
	sw.Connect("b", b1)
	send := func(dst Addr) {
		a.Send(&Packet{Dst: dst, Size: 100})
		s.Run()
	}
	send("b")
	send("b")
	sw.Connect("b", b2)
	send("b")
	send("nope")
	a.Route("b", PortFunc(func(*Packet) { got = append(got, "direct") }))
	send("b")
	if want := "b1 b1 b2 direct"; strings.Join(got, " ") != want {
		t.Fatalf("delivered %q, want %q", got, want)
	}
	if sw.Unknown != 0 || a.Dropped != 0 {
		t.Fatalf("unknown %d dropped %d: a route-less packet never reaches the switch", sw.Unknown, a.Dropped)
	}
	a.Attach(sw)
	send("nope")
	if sw.Unknown != 1 || sw.Forwarded != 3 {
		t.Fatalf("unknown %d forwarded %d, want 1 and 3", sw.Unknown, sw.Forwarded)
	}
}
