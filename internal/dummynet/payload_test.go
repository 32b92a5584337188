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

// TestRestoredPipeDeliversIperfSegments carries a live iperf stream
// through a delay-node freeze, Serialize, Restore and thaw, and requires
// the receiver to see the same data segments, in the same order, as an
// uninterrupted run. A guest message embeds the packet that carries it
// and the segment it carries, so the restored pipe's packet copies
// still point into the original messages.
func TestRestoredPipeDeliversIperfSegments(t *testing.T) {
	run := func(snapshot bool) [][2]int64 {
		s := sim.New(1)
		e, err := emulab.NewTestbed(s, 10).SwapIn(emulab.Spec{
			Name:  "snap",
			Nodes: []emulab.NodeSpec{{Name: "a"}, {Name: "b"}},
			Links: []emulab.LinkSpec{{A: "a", B: "b", Bandwidth: simnet.Gbps, Delay: 2 * sim.Millisecond}},
		})
		if err != nil {
			t.Fatal(err)
		}
		rcv := e.Node("b").K
		ip := apps.NewIperf(e.Node("a").K, rcv)
		var got [][2]int64
		rcv.Handle("iperf", func(_ simnet.Addr, m *guest.Message) {
			seg := m.Data.(*tcpsim.Segment)
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

// dataSegments counts the captured packets of a pipe that carry a
// guest message holding an iperf data segment, and fails on any other
// payload.
func dataSegments(t *testing.T, st *dummynet.PipeState) int {
	t.Helper()
	n := 0
	for _, ps := range slices.Concat(st.Queue, st.DelayLine) {
		m, ok := ps.Packet.Payload.(*guest.Message)
		if !ok {
			t.Fatalf("captured payload %T, want *guest.Message", ps.Packet.Payload)
		}
		seg, ok := m.Data.(*tcpsim.Segment)
		if !ok {
			t.Fatalf("captured message data %T, want *tcpsim.Segment", m.Data)
		}
		if seg.Len > 0 {
			n++
		}
	}
	return n
}
