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

// iperfOverDelayNode swaps in two nodes joined by a 1 Gbps link with a
// 2 ms delay node and wires an iperf session from a to b.
func iperfOverDelayNode(t *testing.T) (*sim.Simulator, *emulab.Experiment, *apps.Iperf) {
	t.Helper()
	s := sim.New(1)
	e, err := emulab.NewTestbed(s, 10).SwapIn(emulab.Spec{
		Name:  "snap",
		Nodes: []emulab.NodeSpec{{Name: "a"}, {Name: "b"}},
		Links: []emulab.LinkSpec{{A: "a", B: "b", Bandwidth: simnet.Gbps, Delay: 2 * sim.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
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
// frames go back to the free list and carry later segments, so the
// image stays as captured only if Serialize pinned what it holds. The
// pipes either thaw as they were or first restore the image, so pinned
// restored frames and reused unpinned ones share the path; either way
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
