package guest

import "emucheck/internal/simnet"

// Pool is one app's free list of messages that carry a payload of type
// T. Send takes a carrier off the list, and the port handler Handler
// wraps returns it once the app's handler has run, so steady traffic
// allocates nothing: the list grows to the peak in flight and stays
// there. One pool serves both directions of an exchange, requests one
// way and replies the other. A carrier lost on the way (to PLR, wire
// loss, a crash or a torn-down guest) is never returned; the garbage
// collector takes it.
//
// A handler keeps nothing past return: neither the *T it is given nor
// anything that points into it. The carrier is zeroed and sent again
// the moment the handler returns.
type Pool[T any] struct{ free []*carrier[T] }

// carrier is one message with its payload: the payload, the message
// and the message's packet share one heap object. The message's Data
// is the carrier itself, so Message.Pin reaches it and PayloadOf reads
// the payload through it.
type carrier[T any] struct {
	m      Message
	v      T
	pinned bool
}

// Pin marks the carrier as held by a checkpoint image: it is never
// recycled, and goes to the garbage collector with the image.
func (c *carrier[T]) Pin() { c.pinned = true }

// get hands out a zeroed carrier, allocating one only when the list is
// empty.
func (p *Pool[T]) get() *carrier[T] {
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	return new(carrier[T])
}

// Send sends v to dst on port through k, in a carrier from the list.
func (p *Pool[T]) Send(k *Kernel, dst simnet.Addr, size int, port string, v T) {
	c := p.get()
	c.v = v
	c.m.Port, c.m.Data = port, c
	k.Send(dst, size, &c.m)
}

// Handler adapts a payload handler to a port handler: it runs h on the
// payload the message carries, then zeroes the carrier and returns it
// to the list unless an image pinned it. Zeroing clears the embedded
// packet too, so a reused carrier passes Kernel.Send's sent-twice
// check. A message that is not a carrier of T is ignored.
func (p *Pool[T]) Handler(h func(from simnet.Addr, v *T)) func(simnet.Addr, *Message) {
	return func(from simnet.Addr, m *Message) {
		c, ok := m.Data.(*carrier[T])
		if !ok {
			return
		}
		h(from, &c.v)
		if !c.pinned {
			*c = carrier[T]{}
			p.free = append(p.free, c)
		}
	}
}

// PayloadOf returns the payload of type T that m carries, or nil when
// m is not a carrier of T.
func PayloadOf[T any](m *Message) *T {
	if c, ok := m.Data.(*carrier[T]); ok {
		return &c.v
	}
	return nil
}
