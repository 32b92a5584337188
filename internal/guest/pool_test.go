package guest

import (
	"testing"
	"unsafe"

	"emucheck/internal/simnet"
	"emucheck/internal/tcpsim"
)

// inFlight returns the carrier k's tx path is sending.
func inFlight[T any](t *testing.T, k *Kernel) *carrier[T] {
	t.Helper()
	m, ok := k.txCur.Payload.(*Message)
	if !ok {
		t.Fatalf("tx payload %T, want *Message", k.txCur.Payload)
	}
	return m.Data.(*carrier[T])
}

// TestPoolReusesCarrier sends three payloads one after another: each
// send after the first reuses the delivered carrier, which passes
// Kernel.Send's sent-twice check because the handler zeroed it.
func TestPoolReusesCarrier(t *testing.T) {
	s, ka, kb := kernelPair(1)
	var pool Pool[int]
	var got []int
	kb.Handle("p", pool.Handler(func(from simnet.Addr, v *int) {
		if from != "a" {
			t.Fatalf("from %q, want a", from)
		}
		got = append(got, *v)
	}))
	var first *carrier[int]
	for i := 1; i <= 3; i++ {
		pool.Send(ka, "b", 100, "p", i)
		c := inFlight[int](t, ka)
		if first == nil {
			first = c
		} else if c != first {
			t.Fatalf("send %d took a new carrier, want the delivered one again", i)
		}
		s.Run()
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("delivered %v, want [1 2 3]", got)
	}
	if len(pool.free) != 1 || *first != (carrier[int]{}) {
		t.Fatalf("%d free carriers, first %+v; want the one zeroed carrier", len(pool.free), *first)
	}
}

// TestPoolNeverRecyclesPinnedCarrier pins a carrier in flight, as a
// delay-node image does: once delivered it stays out of the list and
// keeps its payload while later sends take fresh carriers.
func TestPoolNeverRecyclesPinnedCarrier(t *testing.T) {
	s, ka, kb := kernelPair(1)
	var pool Pool[int]
	var got []int
	kb.Handle("p", pool.Handler(func(_ simnet.Addr, v *int) { got = append(got, *v) }))
	pool.Send(ka, "b", 100, "p", 7)
	pinned := inFlight[int](t, ka)
	pinned.m.Pin()
	s.Run()
	if len(pool.free) != 0 {
		t.Fatalf("%d free carriers after a pinned delivery, want 0", len(pool.free))
	}
	for i := 8; i <= 9; i++ {
		pool.Send(ka, "b", 100, "p", i)
		if inFlight[int](t, ka) == pinned {
			t.Fatalf("send of %d reused the pinned carrier", i)
		}
		s.Run()
	}
	if pinned.v != 7 || !pinned.pinned || PayloadOf[int](&pinned.m) != &pinned.v {
		t.Fatalf("pinned carrier changed after delivery: %+v", *pinned)
	}
	if len(got) != 3 || got[0] != 7 || got[2] != 9 {
		t.Fatalf("delivered %v, want [7 8 9]", got)
	}
}

// TestPoolIgnoresForeignMessages delivers messages that are not
// carriers of the pool's type: the handler does not run and nothing
// joins the list.
func TestPoolIgnoresForeignMessages(t *testing.T) {
	s, ka, kb := kernelPair(1)
	var pool Pool[int]
	var other Pool[string]
	ran := false
	kb.Handle("p", pool.Handler(func(simnet.Addr, *int) { ran = true }))
	ka.Send("b", 100, &Message{Port: "p", Data: 5})
	other.Send(ka, "b", 100, "p", "x")
	s.Run()
	if ran || len(pool.free) != 0 || len(other.free) != 0 {
		t.Fatalf("handler ran %v, %d and %d free carriers; want a foreign message ignored", ran, len(pool.free), len(other.free))
	}
	if PayloadOf[int](&Message{Data: 5}) != nil {
		t.Fatal("PayloadOf read a payload from a message that is no carrier")
	}
}

// TestPoolAllocs holds a warm pool's request and reply to no
// allocations.
func TestPoolAllocs(t *testing.T) {
	s, ka, kb := kernelPair(1)
	var pool Pool[int]
	kb.Handle("req", pool.Handler(func(_ simnet.Addr, v *int) { pool.Send(kb, "a", 100, "rep", *v) }))
	ka.Handle("rep", pool.Handler(func(simnet.Addr, *int) {}))
	rpc := func() {
		pool.Send(ka, "b", 100, "req", 1)
		s.Run()
	}
	rpc()
	if allocs := testing.AllocsPerRun(100, rpc); allocs != 0 {
		t.Fatalf("%.2f allocations per request and reply, want 0", allocs)
	}
}

// TestCarrierSizes pins the message and a TCP segment's carrier at
// their sizes: a carrier adds its payload and the pin flag to the
// message and nothing else.
func TestCarrierSizes(t *testing.T) {
	if n := unsafe.Sizeof(Message{}); n != 96 {
		t.Errorf("Message is %d bytes, want 96", n)
	}
	if n := unsafe.Sizeof(carrier[tcpsim.Segment]{}); n != 168 {
		t.Errorf("TCP segment carrier is %d bytes, want 168", n)
	}
}
