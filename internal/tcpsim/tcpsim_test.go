package tcpsim

import (
	"testing"

	"emucheck/internal/sim"
)

// fakeEnv wires a sender and receiver over a delayful, lossy channel
// driven directly by the simulator (no guest kernel involved).
type fakeEnv struct {
	s       *sim.Simulator
	delay   sim.Time
	peer    func(*Segment)
	dropSeq map[int64]bool // payload seqs to drop exactly once
	sent    int
}

func (e *fakeEnv) Now() sim.Time { return e.s.Now() }
func (e *fakeEnv) NewTimer(name string, fn func()) Timer {
	return simTimer{e.s.NewTimer(name, fn)}
}
func (e *fakeEnv) Output(g Segment) {
	e.sent++
	if g.Len > 0 && e.dropSeq[g.Seq] && !g.Rtx {
		delete(e.dropSeq, g.Seq)
		return
	}
	e.s.After(e.delay, "net", func() { e.peer(&g) })
}

// simTimer adapts a plain simulator timer to Timer.
type simTimer struct{ *sim.Timer }

func (t simTimer) Start(d sim.Time) { t.Reset(d) }

func pipe(s *sim.Simulator, delay sim.Time) (*Sender, *Receiver, *fakeEnv, *fakeEnv) {
	se := &fakeEnv{s: s, delay: delay, dropSeq: map[int64]bool{}}
	re := &fakeEnv{s: s, delay: delay, dropSeq: map[int64]bool{}}
	snd := NewSender(se, "c")
	rcv := NewReceiver(re, "c")
	se.peer = rcv.HandleSegment
	re.peer = snd.HandleSegment
	return snd, rcv, se, re
}

func TestBoundedTransferCompletes(t *testing.T) {
	s := sim.New(1)
	snd, rcv, _, _ := pipe(s, sim.Millisecond)
	var total int64
	rcv.OnData = func(n int, tot int64) { total = tot }
	snd.Stream(1 << 20)
	s.RunFor(10 * sim.Second)
	if !snd.Done() {
		t.Fatalf("not done: acked %d", snd.Acked())
	}
	if total != 1<<20 || rcv.Delivered() != 1<<20 {
		t.Fatalf("delivered %d", total)
	}
	if snd.Retransmits != 0 || snd.Timeouts != 0 {
		t.Fatalf("spurious recovery: rtx=%d to=%d", snd.Retransmits, snd.Timeouts)
	}
}

func TestSlowStartGrowth(t *testing.T) {
	s := sim.New(1)
	snd, _, _, _ := pipe(s, 10*sim.Millisecond)
	snd.Stream(4 << 20)
	c0 := snd.cwnd
	s.RunFor(300 * sim.Millisecond)
	if snd.cwnd <= c0*4 {
		t.Fatalf("cwnd grew too slowly: %d -> %d", c0, snd.cwnd)
	}
}

func TestInOrderDelivery(t *testing.T) {
	s := sim.New(1)
	snd, rcv, _, _ := pipe(s, sim.Millisecond)
	var lastTotal int64
	ordered := true
	rcv.OnData = func(n int, tot int64) {
		if tot < lastTotal {
			ordered = false
		}
		lastTotal = tot
	}
	snd.Stream(512 << 10)
	s.RunFor(10 * sim.Second)
	if !ordered {
		t.Fatal("out-of-order delivery to app")
	}
}

func TestFastRetransmitOnLoss(t *testing.T) {
	s := sim.New(1)
	snd, rcv, se, _ := pipe(s, 5*sim.Millisecond)
	se.dropSeq[int64(20*MSS)] = true
	snd.Stream(256 << 10)
	s.RunFor(30 * sim.Second)
	if !snd.Done() {
		t.Fatalf("transfer stalled at %d", snd.Acked())
	}
	if snd.Retransmits == 0 {
		t.Fatal("no retransmit for dropped segment")
	}
	if snd.FastRecovers == 0 && snd.Timeouts == 0 {
		t.Fatal("loss recovered without any recovery path?")
	}
	if rcv.Delivered() != 256<<10 {
		t.Fatalf("delivered %d", rcv.Delivered())
	}
}

func TestTimeoutPath(t *testing.T) {
	s := sim.New(1)
	snd, _, se, _ := pipe(s, sim.Millisecond)
	// Drop the very first segment; with cwnd=2 MSS there are not enough
	// dupacks for fast retransmit, forcing an RTO.
	se.dropSeq[0] = true
	snd.Stream(2 * MSS)
	s.RunFor(5 * sim.Second)
	if snd.Timeouts == 0 {
		t.Fatal("no timeout")
	}
	if !snd.Done() {
		t.Fatalf("stalled at %d", snd.Acked())
	}
}

func TestSRTTEstimation(t *testing.T) {
	s := sim.New(1)
	snd, _, _, _ := pipe(s, 25*sim.Millisecond)
	snd.Stream(1 << 20)
	s.RunFor(5 * sim.Second)
	srtt := snd.SRTT()
	if srtt < 45*sim.Millisecond || srtt > 80*sim.Millisecond {
		t.Fatalf("SRTT %v, want ~50ms", srtt)
	}
}

func TestReceiverOOOBuffering(t *testing.T) {
	s := sim.New(1)
	re := &fakeEnv{s: s, dropSeq: map[int64]bool{}}
	rcv := NewReceiver(re, "c")
	re.peer = func(*Segment) {}
	var got []int
	rcv.OnData = func(n int, tot int64) { got = append(got, n) }
	// Deliver segment 2 then segment 1.
	rcv.HandleSegment(&Segment{Conn: "c", Seq: MSS, Len: MSS})
	if len(rcv.OOOSegments()) != 1 {
		t.Fatal("ooo not buffered")
	}
	rcv.HandleSegment(&Segment{Conn: "c", Seq: 0, Len: MSS})
	if rcv.Delivered() != 2*MSS {
		t.Fatalf("delivered %d", rcv.Delivered())
	}
	if len(got) != 1 || got[0] != 2*MSS {
		t.Fatalf("OnData calls: %v", got)
	}
	// Duplicate data counted.
	rcv.HandleSegment(&Segment{Conn: "c", Seq: 0, Len: MSS})
	if rcv.DupData != 1 {
		t.Fatalf("dup = %d", rcv.DupData)
	}
}

func TestWindowLimitsInFlight(t *testing.T) {
	s := sim.New(1)
	se := &fakeEnv{s: s, delay: sim.Second, dropSeq: map[int64]bool{}} // huge RTT
	snd := NewSender(se, "c")
	se.peer = func(*Segment) {}
	snd.Stream(-1 & (1 << 30))
	snd.Stream(1 << 30)
	if snd.InFlight() > snd.cwnd {
		t.Fatalf("inflight %d exceeds cwnd %d", snd.InFlight(), snd.cwnd)
	}
}

func TestCloseStopsPump(t *testing.T) {
	s := sim.New(1)
	snd, _, se, _ := pipe(s, sim.Millisecond)
	snd.Stream(1 << 30)
	s.RunFor(100 * sim.Millisecond)
	n := se.sent
	snd.Close()
	s.RunFor(2 * sim.Second)
	// After close no new transmissions (the receiver may still ack).
	if se.sent > n {
		t.Fatalf("sent after close: %d -> %d", n, se.sent)
	}
}

func TestSegmentWireSize(t *testing.T) {
	g := &Segment{Len: MSS}
	if g.WireSize() != 1500 {
		t.Fatalf("wire size %d, want 1500", g.WireSize())
	}
}
