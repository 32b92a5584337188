// Package simnet models the experimental network fabric: packets,
// network interfaces with transmit serialization, point-to-point wires
// with propagation delay and loss, and store-and-forward L2 switches.
//
// The fabric is deliberately composable: anything that can accept a
// packet implements Port, so a path can be assembled as
// NIC -> Wire -> DelayNode -> Wire -> NIC, exactly mirroring how Emulab
// interposes delay nodes on experiment links (paper §2).
//
// Frozen receivers: when a node is suspended for a checkpoint, packets
// that arrive at its NIC are appended to a per-flow replay log and
// delivered in order on resume (paper §3.2). With delay nodes capturing
// the bandwidth-delay product, the log stays bounded by the checkpoint
// synchronization skew.
package simnet

import (
	"fmt"

	"emucheck/internal/sim"
)

// Addr identifies a network endpoint (one NIC).
type Addr string

// Bitrate is a link speed in bits per second.
type Bitrate int64

// Common link speeds used by the Emulab pc3000 configuration.
const (
	Mbps Bitrate = 1_000_000
	Gbps Bitrate = 1_000_000_000
)

// TxTime reports how long serializing size bytes takes at rate r.
func (r Bitrate) TxTime(size int) sim.Time {
	if r <= 0 {
		return 0
	}
	return sim.Time(int64(size) * 8 * int64(sim.Second) / int64(r))
}

// Packet is one frame traversing the fabric. Payload carries the
// protocol-specific content (e.g. a TCP segment) and is never inspected
// by the fabric itself — Emulab supports any protocol above L2 (§3.3),
// and so does this model.
type Packet struct {
	ID      uint64
	Src     Addr
	Dst     Addr
	Size    int // bytes on the wire
	Payload any
}

// Clone returns a shallow copy of the packet.
func (p *Packet) Clone() *Packet {
	c := *p
	return &c
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt %d %s->%s (%dB)", p.ID, p.Src, p.Dst, p.Size)
}

// Port is anything that can accept a packet at the current simulation
// time: a wire, a switch, a delay-node pipe, or a NIC's receive side.
type Port interface {
	Accept(pkt *Packet)
}

// PortFunc adapts a function to the Port interface.
type PortFunc func(pkt *Packet)

// Accept calls f(pkt).
func (f PortFunc) Accept(pkt *Packet) { f(pkt) }

// Counters aggregates traffic statistics on a NIC direction.
type Counters struct {
	Packets uint64
	Bytes   uint64
}

// NIC is a network interface: it serializes outbound packets at its
// configured speed onto an attached Port, and delivers inbound packets to
// a handler. The receive side can be frozen for checkpoints.
type NIC struct {
	sim     *sim.Simulator
	addr    Addr
	speed   Bitrate
	out     *hop          // egress for destinations without a route
	routes  map[Addr]*hop // per-destination egress of a multi-link node
	handler func(*Packet)
	lastDst Addr // with lastHop, a memo of the last route:
	lastHop *hop // routes[lastDst], nil when unrouted

	txFreeAt sim.Time // when the transmitter finishes its current queue

	frozen    bool
	replay    []*Packet // arrival-ordered log of packets received while frozen
	replayGap sim.Time  // spacing between replayed packets

	nextID uint64

	TX, RX Counters
	// Dropped counts packets discarded because no handler was attached.
	Dropped uint64
}

// hop is a fixed-latency FIFO path into one port: a wire's propagation,
// a switch's forwarding, or a plain hand-off. A packet entering at t
// arrives at t+latency, and one event per packet runs the arrival.
// Due times entering one hop never decrease (a NIC's transmitter and
// the clock both only move forward), so every event pops the head and
// one bound callback serves every packet.
type hop struct {
	sim     *sim.Simulator
	name    string
	latency sim.Time
	arrive  func(*Packet)
	q       sim.FIFO[*Packet]
	fire    func()
}

// newHop builds the path into p. A Wire or Switch contributes its delay
// and its arrival action; any other port takes the packet directly.
func newHop(s *sim.Simulator, p Port) *hop {
	h := &hop{sim: s}
	switch p := p.(type) {
	case *Wire:
		h.name, h.latency, h.arrive = "wire", p.delay, p.arrive
	case *Switch:
		h.name, h.latency, h.arrive = "switch", p.latency, p.ingress()
	default:
		h.name, h.arrive = "nic.tx", p.Accept
	}
	h.fire = func() { h.arrive(h.q.Pop()) }
	return h
}

// enter sends pkt down the hop at time at, not before now.
func (h *hop) enter(pkt *Packet, at sim.Time) {
	h.q.Push(pkt)
	h.sim.DoAt(at+h.latency, h.name, h.fire)
}

// NewNIC creates an interface with the given address and line rate.
// The replay gap defaults to 1 µs, approximating back-to-back delivery
// without creating simultaneous events.
func NewNIC(s *sim.Simulator, addr Addr, speed Bitrate) *NIC {
	return &NIC{sim: s, addr: addr, speed: speed, replayGap: sim.Microsecond}
}

// Addr reports the NIC's address.
func (n *NIC) Addr() Addr { return n.addr }

// Attach connects the transmit side to a downstream port.
func (n *NIC) Attach(out Port) { n.out = newHop(n.sim, out) }

// Route sends packets addressed to dst through out instead of the
// attached port: the egress table of a node on several links. Once a
// NIC has routes, a packet for a destination with neither a route nor
// an attached port is serialized and then lost, like a frame for an
// unknown station.
func (n *NIC) Route(dst Addr, out Port) {
	if n.routes == nil {
		n.routes = make(map[Addr]*hop)
	}
	n.routes[dst] = newHop(n.sim, out)
	if dst == n.lastDst {
		n.lastHop = n.routes[dst]
	}
}

// OnReceive installs the inbound packet handler.
func (n *NIC) OnReceive(h func(*Packet)) { n.handler = h }

// QueuedTx reports packets sent but not yet arrived at the far end of
// their first hop.
func (n *NIC) QueuedTx() int {
	q := 0
	if n.out != nil {
		q = n.out.q.Len()
	}
	for _, h := range n.routes {
		q += h.q.Len()
	}
	return q
}

// Send serializes the packet onto its egress port, honoring the line
// rate: a packet begins transmission only after all previously queued
// packets have left the interface. It returns the wire-exit time, and
// schedules the packet's arrival at the far end of its first hop right
// away, since a FIFO transmitter knows every exit time on entry.
// Sending with no attached port counts as a drop.
func (n *NIC) Send(pkt *Packet) sim.Time {
	pkt.Src = n.addr
	n.nextID++
	pkt.ID = n.nextID
	if n.out == nil && n.routes == nil {
		n.Dropped++
		return n.sim.Now()
	}
	done := max(n.sim.Now(), n.txFreeAt) + n.speed.TxTime(pkt.Size)
	n.txFreeAt = done
	n.TX.Packets++
	n.TX.Bytes += uint64(pkt.Size)
	h := n.out
	if pkt.Dst != n.lastDst {
		n.lastDst, n.lastHop = pkt.Dst, n.routes[pkt.Dst]
	}
	if n.lastHop != nil {
		h = n.lastHop
	}
	if h != nil {
		h.enter(pkt, done)
	}
	return done
}

// Accept implements Port for the receive side.
func (n *NIC) Accept(pkt *Packet) {
	if n.frozen {
		n.replay = append(n.replay, pkt)
		return
	}
	n.deliver(pkt)
}

func (n *NIC) deliver(pkt *Packet) {
	n.RX.Packets++
	n.RX.Bytes += uint64(pkt.Size)
	if n.handler == nil {
		n.Dropped++
		return
	}
	n.handler(pkt)
}

// Freeze suspends inbound delivery; packets arriving while frozen are
// logged for in-order replay. The transmit side needs no freezing: a
// frozen guest generates no traffic, and packets already accepted for
// serialization represent bits physically on the wire.
func (n *NIC) Freeze() { n.frozen = true }

// Frozen reports whether the receive side is frozen.
func (n *NIC) Frozen() bool { return n.frozen }

// ReplayLogLen reports how many packets are waiting in the replay log.
func (n *NIC) ReplayLogLen() int { return len(n.replay) }

// Thaw resumes delivery, replaying logged packets in arrival order with
// the configured inter-packet gap before any new traffic is handled.
// Per-flow order is preserved because arrival order preserves it.
func (n *NIC) Thaw() {
	n.frozen = false
	log := n.replay
	n.replay = nil
	gap := sim.Time(0)
	for _, pkt := range log {
		pkt := pkt
		n.sim.DoAfter(gap, "nic.replay", func() { n.deliver(pkt) })
		gap += n.replayGap
	}
}

// SetReplayGap overrides the spacing used when draining the replay log.
// The paper notes that replaying faster than the natural arrival rate
// creates artificial bursts (§3.2); tests use this to demonstrate it.
func (n *NIC) SetReplayGap(d sim.Time) {
	if d < 0 {
		d = 0
	}
	n.replayGap = d
}

// Wire is a unidirectional point-to-point segment with fixed propagation
// delay and optional random loss. Bandwidth is enforced by the sending
// NIC (or delay-node pipe), not the wire. The loss draw happens when a
// packet arrives at the far end, in the same event that delivers it.
type Wire struct {
	delay sim.Time
	loss  float64 // probability in [0,1]
	dst   Port
	in    *hop // packets handed to Accept directly, not by a NIC

	Delivered uint64
	Lost      uint64
}

// NewWire creates a wire to dst with the given one-way propagation delay.
func NewWire(s *sim.Simulator, delay sim.Time, dst Port) *Wire {
	w := &Wire{delay: delay, dst: dst}
	w.in = newHop(s, w)
	return w
}

// SetLoss sets the independent per-packet loss probability.
func (w *Wire) SetLoss(p float64) { w.loss = min(max(p, 0), 1) }

// Accept implements Port.
func (w *Wire) Accept(pkt *Packet) { w.in.enter(pkt, w.in.sim.Now()) }

// arrive completes a packet's propagation: it is lost with the wire's
// loss probability, else delivered.
func (w *Wire) arrive(pkt *Packet) {
	if w.loss > 0 && w.in.sim.Rand().Float64() < w.loss {
		w.Lost++
		return
	}
	w.Delivered++
	w.dst.Accept(pkt)
}

// Switch is a store-and-forward L2 switch: packets are forwarded to the
// port registered for their destination address after a fixed forwarding
// latency. Unknown destinations are dropped (experiments are closed
// worlds; there is no flooding).
type Switch struct {
	latency sim.Time
	ports   map[Addr]Port
	gen     int  // bumped by Connect: invalidates the ingress memos
	in      *hop // packets handed to Accept directly, not by a NIC

	Forwarded uint64
	Unknown   uint64
}

// NewSwitch creates a switch with the given per-packet forwarding latency.
func NewSwitch(s *sim.Simulator, latency sim.Time) *Switch {
	sw := &Switch{latency: latency, ports: make(map[Addr]Port)}
	sw.in = newHop(s, sw)
	return sw
}

// Connect registers the port handling traffic addressed to addr.
func (sw *Switch) Connect(addr Addr, p Port) {
	sw.ports[addr] = p
	sw.gen++
}

// Accept implements Port.
func (sw *Switch) Accept(pkt *Packet) { sw.in.enter(pkt, sw.in.sim.Now()) }

// ingress returns the forwarding action of one path into the switch,
// which hands a packet that has crossed it to its destination's port.
// Each path remembers its last destination's port, so a flow forwards
// without a lookup.
func (sw *Switch) ingress() func(*Packet) {
	dst, port, gen := Addr(""), Port(nil), -1
	return func(pkt *Packet) {
		if pkt.Dst != dst || gen != sw.gen {
			dst, port, gen = pkt.Dst, sw.ports[pkt.Dst], sw.gen
		}
		if port == nil {
			sw.Unknown++
			return
		}
		sw.Forwarded++
		port.Accept(pkt)
	}
}
