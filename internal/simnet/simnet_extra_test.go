package simnet

import (
	"testing"

	"emucheck/internal/sim"
)

func TestPortFuncAdapter(t *testing.T) {
	got := 0
	var p Port = PortFunc(func(*Packet) { got++ })
	p.Accept(&Packet{})
	if got != 1 {
		t.Fatal("adapter")
	}
}

func TestFreezeDuringThawReplay(t *testing.T) {
	// Refreezing while a replay is in flight: already-scheduled replay
	// deliveries land (they are wire arrivals in progress); packets
	// still arriving afterwards are logged again. Nothing is lost.
	s := sim.New(1)
	a, b := pair(s, 1000*Mbps, 0)
	n := 0
	b.OnReceive(func(*Packet) { n++ })
	b.Freeze()
	for i := 0; i < 4; i++ {
		a.Send(&Packet{Dst: "b", Size: 500})
	}
	s.Run()
	b.Thaw()
	// Refreeze immediately: replay events are queued with 1 µs spacing.
	b.Freeze()
	s.Run()
	b.Thaw()
	s.Run()
	if n != 4 {
		t.Fatalf("delivered %d/4 across freeze-thaw-freeze", n)
	}
}

func TestQueuedTxCount(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 1*Mbps, 0) // slow: 1500B takes 12ms
	b.OnReceive(func(*Packet) {})
	for i := 0; i < 3; i++ {
		a.Send(&Packet{Dst: "b", Size: 1500})
	}
	if a.QueuedTx() != 3 {
		t.Fatalf("queued = %d", a.QueuedTx())
	}
	s.Run()
	if a.QueuedTx() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestSwitchMultiplePorts(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, sim.Microsecond)
	nics := make(map[Addr]*NIC)
	hits := make(map[Addr]int)
	for _, n := range []Addr{"a", "b", "c", "d"} {
		n := n
		nic := NewNIC(s, n, 100*Mbps)
		nic.Attach(sw)
		nic.OnReceive(func(*Packet) { hits[n]++ })
		sw.Connect(n, nic)
		nics[n] = nic
	}
	// Full mesh of one packet each.
	for _, src := range []Addr{"a", "b", "c", "d"} {
		for _, dst := range []Addr{"a", "b", "c", "d"} {
			if src != dst {
				nics[src].Send(&Packet{Dst: dst, Size: 100})
			}
		}
	}
	s.Run()
	for n, h := range hits {
		if h != 3 {
			t.Fatalf("%s received %d", n, h)
		}
	}
	if sw.Forwarded != 12 {
		t.Fatalf("forwarded = %d", sw.Forwarded)
	}
}
