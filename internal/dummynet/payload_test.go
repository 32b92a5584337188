package dummynet_test

import (
	"slices"
	"testing"

	"emucheck/internal/apps"
	"emucheck/internal/dummynet"
	"emucheck/internal/emulab"
	"emucheck/internal/guest"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
	"emucheck/internal/tcpsim"
)

// overDelayNode swaps in two nodes, a and b, joined by a 1 Gbps link
// through a delay node of the given one-way delay.
func overDelayNode(t *testing.T, delay sim.Time) (*sim.Simulator, *emulab.Experiment) {
	t.Helper()
	s := sim.New(1)
	e, err := emulab.NewTestbed(s, 10).SwapIn(emulab.Spec{
		Name:  "snap",
		Nodes: []emulab.NodeSpec{{Name: "a"}, {Name: "b"}},
		Links: []emulab.LinkSpec{{A: "a", B: "b", Bandwidth: simnet.Gbps, Delay: delay}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, e
}

// iperfOverDelayNode wires an iperf session from a to b across a 2 ms
// delay node.
func iperfOverDelayNode(t *testing.T) (*sim.Simulator, *emulab.Experiment, *apps.Iperf) {
	t.Helper()
	s, e := overDelayNode(t, 2*sim.Millisecond)
	return s, e, apps.NewIperf(e.Node("a").K, e.Node("b").K)
}

// TestRestoredPipeDeliversIperfSegments carries a live iperf stream
// through a delay-node freeze, Serialize, Restore and thaw, and requires
// the receiver to see the same data segments, in the same order, as an
// uninterrupted run. The restored pipe's packet copies still point into
// the original messages, which the image pinned.
func TestRestoredPipeDeliversIperfSegments(t *testing.T) {
	run := func(snapshot bool) [][2]int64 {
		s, e, ip := iperfOverDelayNode(t)
		var got [][2]int64
		e.Node("b").K.Handle("iperf", func(_ simnet.Addr, m *guest.Message) {
			seg := apps.SegmentOf(m)
			if seg == nil {
				t.Fatalf("delivered message data %T carries no segment", m.Data)
			}
			if seg.Len > 0 {
				got = append(got, [2]int64{seg.Seq, int64(seg.Len)})
			}
			ip.Receiver.HandleSegment(seg)
		})
		ip.Start(-1)
		s.RunFor(200 * sim.Millisecond)
		if snapshot {
			d := e.DelayNodes[0]
			d.Freeze()
			st, err := d.Serialize()
			if err != nil {
				t.Fatal(err)
			}
			if n := dataSegments(t, st.Forward); n == 0 {
				t.Fatal("snapshot holds no in-flight data segments")
			}
			d.Restore(st)
			d.Thaw()
		}
		s.RunFor(300 * sim.Millisecond)
		if ip.Sender.Retransmits != 0 {
			t.Fatalf("snapshot=%v: %d retransmits", snapshot, ip.Sender.Retransmits)
		}
		return got
	}
	plain, restored := run(false), run(true)
	if len(plain) == 0 {
		t.Fatal("no segments delivered")
	}
	if !slices.Equal(plain, restored) {
		t.Fatalf("restored run delivered %d segments, uninterrupted %d, sequences differ", len(restored), len(plain))
	}
}

// TestImageKeepsCapturedSegments serializes a delay node under a live
// iperf stream and keeps the image while the pipes deliver every packet
// it captured, with the connection's own port handlers: delivered
// carriers go back to the pool and carry later segments, so the image
// stays as captured only if Serialize pinned what it holds. The pipes
// either thaw as they were or first restore the image, so pinned
// restored carriers and reused unpinned ones share the path; either way
// the receiver must end where an uninterrupted stream ends.
func TestImageKeepsCapturedSegments(t *testing.T) {
	run := func(snapshot, restore bool) *apps.Iperf {
		s, e, ip := iperfOverDelayNode(t)
		ip.Start(-1)
		s.RunFor(200 * sim.Millisecond)
		if !snapshot {
			s.RunFor(300 * sim.Millisecond)
			return ip
		}
		d := e.DelayNodes[0]
		d.Freeze()
		st, err := d.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		before := captured(t, st)
		if dataSegments(t, st.Forward) == 0 || len(st.Reverse.Queue)+len(st.Reverse.DelayLine) == 0 {
			t.Fatalf("image holds %d packets, want data and ACKs in flight", len(before))
		}
		rcvd := ip.Receiver.SegmentsRcvd
		if restore {
			d.Restore(st)
		}
		d.Thaw()
		s.RunFor(300 * sim.Millisecond)
		if ip.Receiver.SegmentsRcvd < rcvd+len(before) {
			t.Fatalf("restore=%v: %d segments received after thaw, image holds %d", restore, ip.Receiver.SegmentsRcvd-rcvd, len(before))
		}
		if after := captured(t, st); !slices.Equal(before, after) {
			t.Fatalf("restore=%v: image changed after its packets were delivered:\nbefore %v\nafter  %v", restore, before, after)
		}
		return ip
	}
	plain := run(false, false)
	for _, restore := range []bool{false, true} {
		ip := run(true, restore)
		if ip.Sender.Retransmits != 0 {
			t.Fatalf("restore=%v: %d retransmits", restore, ip.Sender.Retransmits)
		}
		if ip.Receiver.SegmentsRcvd != plain.Receiver.SegmentsRcvd || ip.Receiver.Delivered() != plain.Receiver.Delivered() {
			t.Fatalf("restore=%v: received %d segments, %d bytes; uninterrupted %d, %d", restore,
				ip.Receiver.SegmentsRcvd, ip.Receiver.Delivered(), plain.Receiver.SegmentsRcvd, plain.Receiver.Delivered())
		}
	}
}

// TestRestoredPipeDeliversRPCPayloads freezes a delay node while a
// ping-pong exchange has a ping in flight, serializes it, restores the
// image and thaws, and requires the same sequence of echoed rounds as
// an uninterrupted run. The restored packet points into the ping's
// carrier and the ping's handler runs on it: the image pinned the
// carrier, so the pool must not recycle it, and the image must still
// hold the round it captured after later pings have come and gone.
func TestRestoredPipeDeliversRPCPayloads(t *testing.T) {
	run := func(snapshot bool) []int {
		s, e := overDelayNode(t, 20*sim.Millisecond)
		d := e.DelayNodes[0]
		ka, kb := e.Node("a").K, e.Node("b").K
		var rounds []int
		apps.RunPingPong(ka, kb, simnet.Addr(ka.Name), simnet.Addr(kb.Name), 50*sim.Millisecond, func(r int) {
			rounds = append(rounds, r)
		})
		s.RunFor(500 * sim.Millisecond)
		for d.Forward.QueueLen()+d.Forward.InFlight() == 0 {
			s.RunFor(sim.Millisecond)
		}
		if !snapshot {
			s.RunFor(2 * sim.Second)
			return rounds
		}
		d.Freeze()
		st, err := d.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(st.Forward.Queue) + len(st.Forward.DelayLine) + len(st.Reverse.Queue) + len(st.Reverse.DelayLine); n != 1 {
			t.Fatalf("image holds %d packets, want the one ping in flight", n)
		}
		ps := slices.Concat(st.Forward.Queue, st.Forward.DelayLine)[0]
		round := pingRound(t, ps.Packet)
		if round != len(rounds)+1 {
			t.Fatalf("image holds the ping of round %d, want %d", round, len(rounds)+1)
		}
		d.Restore(st)
		d.Thaw()
		s.RunFor(2 * sim.Second)
		if got := pingRound(t, ps.Packet); got != round {
			t.Fatalf("image's ping reads round %d after the run, captured %d", got, round)
		}
		return rounds
	}
	plain, restored := run(false), run(true)
	if len(plain) < 20 {
		t.Fatalf("%d rounds in the uninterrupted run, want at least 20", len(plain))
	}
	if !slices.Equal(plain, restored) {
		t.Fatalf("restored run echoed rounds %v, uninterrupted %v", restored, plain)
	}
}

// pingRound returns the round a captured ping carries, failing on any
// other payload.
func pingRound(t *testing.T, pkt *simnet.Packet) int {
	t.Helper()
	m, ok := pkt.Payload.(*guest.Message)
	if !ok || m.Port != "ping" {
		t.Fatalf("captured payload %v, want a ping message", pkt.Payload)
	}
	r := guest.PayloadOf[int](m)
	if r == nil {
		t.Fatalf("captured ping's data %T carries no round", m.Data)
	}
	return *r
}

// captured lists (Seq, Len, Ack) of every segment a delay-node image
// holds, forward pipe first.
func captured(t *testing.T, st *dummynet.State) [][3]int64 {
	t.Helper()
	var out [][3]int64
	for _, ps := range slices.Concat(st.Forward.Queue, st.Forward.DelayLine, st.Reverse.Queue, st.Reverse.DelayLine) {
		seg := segmentOf(t, ps.Packet)
		out = append(out, [3]int64{seg.Seq, int64(seg.Len), seg.Ack})
	}
	return out
}

// dataSegments counts the captured packets of a pipe that carry a
// guest message holding an iperf data segment, and fails on any other
// payload.
func dataSegments(t *testing.T, st *dummynet.PipeState) int {
	t.Helper()
	n := 0
	for _, ps := range slices.Concat(st.Queue, st.DelayLine) {
		if segmentOf(t, ps.Packet).Len > 0 {
			n++
		}
	}
	return n
}

// segmentOf returns the TCP segment pkt carries, failing on any other
// payload.
func segmentOf(t *testing.T, pkt *simnet.Packet) *tcpsim.Segment {
	t.Helper()
	m, ok := pkt.Payload.(*guest.Message)
	if !ok {
		t.Fatalf("captured payload %T, want *guest.Message", pkt.Payload)
	}
	seg := apps.SegmentOf(m)
	if seg == nil {
		t.Fatalf("captured message data %T carries no segment", m.Data)
	}
	return seg
}
