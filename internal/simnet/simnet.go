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
	Flow    string // source-destination flow label for replay ordering
	Size    int    // bytes on the wire
	Payload any
	SentAt  sim.Time
}

// Clone returns a shallow copy of the packet.
func (p *Packet) Clone() *Packet {
	c := *p
	return &c
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt %d %s->%s (%dB, flow %s)", p.ID, p.Src, p.Dst, p.Size, p.Flow)
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
	out     Port
	handler func(*Packet)

	txFreeAt sim.Time // when the transmitter finishes its current queue
	// onWire holds the packets accepted for transmit but not yet handed
	// downstream, with the port each leaves through. Their wire-exit
	// events fire in send order, so each event delivers the head, and
	// one pre-bound callback (txDone) serves every packet.
	onWire sim.FIFO[hop]
	txDone func()

	frozen    bool
	replay    []*Packet // arrival-ordered log of packets received while frozen
	replayGap sim.Time  // spacing between replayed packets

	nextID uint64

	// flows caches the "src>dst" flow label per destination: a NIC
	// talks to a handful of peers and pays a Send per packet, so
	// rebuilding the identical concatenation per call was one of the
	// per-packet allocations the PR 8 -memprofile sweep removed.
	flows map[Addr]string

	TX, RX Counters
	// Dropped counts packets discarded because no handler was attached.
	Dropped uint64
}

// hop is a packet in flight to the next port of its path.
type hop struct {
	pkt *Packet
	to  Port
}

// deliverHead hands the oldest in-flight packet to its port. It is
// the callback of every event a FIFO-ordered stage (a NIC transmitter,
// a wire, a switch) schedules, so the stage binds it once instead of
// building a closure per packet.
func deliverHead(q *sim.FIFO[hop]) {
	h := q.Pop()
	h.to.Accept(h.pkt)
}

// NewNIC creates an interface with the given address and line rate.
// The replay gap defaults to 1 µs, approximating back-to-back delivery
// without creating simultaneous events.
func NewNIC(s *sim.Simulator, addr Addr, speed Bitrate) *NIC {
	n := &NIC{sim: s, addr: addr, speed: speed, replayGap: sim.Microsecond}
	n.txDone = func() { deliverHead(&n.onWire) }
	return n
}

// Addr reports the NIC's address.
func (n *NIC) Addr() Addr { return n.addr }

// Speed reports the NIC's line rate.
func (n *NIC) Speed() Bitrate { return n.speed }

// Attach connects the transmit side to a downstream port.
func (n *NIC) Attach(out Port) { n.out = out }

// OnReceive installs the inbound packet handler.
func (n *NIC) OnReceive(h func(*Packet)) { n.handler = h }

// QueuedTx reports packets accepted for transmit but not yet delivered
// to the downstream port.
func (n *NIC) QueuedTx() int { return n.onWire.Len() }

// Send serializes the packet onto the attached port, honoring the line
// rate: a packet begins transmission only after all previously queued
// packets have left the interface. It returns the scheduled wire-exit
// time. Sending with no attached port counts as a drop.
func (n *NIC) Send(pkt *Packet) sim.Time {
	pkt.Src = n.addr
	if pkt.Flow == "" {
		pkt.Flow = n.flowLabel(pkt.Dst)
	}
	n.nextID++
	pkt.ID = n.nextID
	pkt.SentAt = n.sim.Now()
	if n.out == nil {
		n.Dropped++
		return n.sim.Now()
	}
	start := n.sim.Now()
	if n.txFreeAt > start {
		start = n.txFreeAt
	}
	done := start + n.speed.TxTime(pkt.Size)
	n.txFreeAt = done
	n.TX.Packets++
	n.TX.Bytes += uint64(pkt.Size)
	n.onWire.Push(hop{pkt, n.out})
	n.sim.DoAt(done, "nic.tx", n.txDone)
	return done
}

// flowLabel returns the cached "src>dst" label for a destination,
// building it on first use.
func (n *NIC) flowLabel(dst Addr) string {
	if s, ok := n.flows[dst]; ok {
		return s
	}
	if n.flows == nil {
		n.flows = make(map[Addr]string)
	}
	s := string(n.addr) + ">" + string(dst)
	n.flows[dst] = s
	return s
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
// NIC (or delay-node pipe), not the wire.
type Wire struct {
	sim   *sim.Simulator
	delay sim.Time
	loss  float64 // probability in [0,1]
	dst   Port
	// inFlight holds the packets propagating; with one fixed delay
	// they arrive in the order they entered.
	inFlight sim.FIFO[hop]
	arrive   func()

	Delivered uint64
	Lost      uint64
}

// NewWire creates a wire to dst with the given one-way propagation delay.
func NewWire(s *sim.Simulator, delay sim.Time, dst Port) *Wire {
	w := &Wire{sim: s, delay: delay, dst: dst}
	w.arrive = func() {
		w.Delivered++
		deliverHead(&w.inFlight)
	}
	return w
}

// SetLoss sets the independent per-packet loss probability.
func (w *Wire) SetLoss(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	w.loss = p
}

// Delay reports the propagation delay.
func (w *Wire) Delay() sim.Time { return w.delay }

// Accept implements Port.
func (w *Wire) Accept(pkt *Packet) {
	if w.loss > 0 && w.sim.Rand().Float64() < w.loss {
		w.Lost++
		return
	}
	w.inFlight.Push(hop{pkt, w.dst})
	w.sim.DoAfter(w.delay, "wire", w.arrive)
}

// Switch is a store-and-forward L2 switch: packets are forwarded to the
// port registered for their destination address after a fixed forwarding
// latency. Unknown destinations are dropped (experiments are closed
// worlds; there is no flooding).
type Switch struct {
	sim     *sim.Simulator
	latency sim.Time
	ports   map[Addr]Port
	// inFlight holds the packets being forwarded, in arrival order.
	inFlight sim.FIFO[hop]
	forward  func()

	Forwarded uint64
	Unknown   uint64
}

// NewSwitch creates a switch with the given per-packet forwarding latency.
func NewSwitch(s *sim.Simulator, latency sim.Time) *Switch {
	sw := &Switch{sim: s, latency: latency, ports: make(map[Addr]Port)}
	sw.forward = func() {
		sw.Forwarded++
		deliverHead(&sw.inFlight)
	}
	return sw
}

// Connect registers the port handling traffic addressed to addr.
func (sw *Switch) Connect(addr Addr, p Port) { sw.ports[addr] = p }

// Accept implements Port.
func (sw *Switch) Accept(pkt *Packet) {
	dst, ok := sw.ports[pkt.Dst]
	if !ok {
		sw.Unknown++
		return
	}
	sw.inFlight.Push(hop{pkt, dst})
	sw.sim.DoAfter(sw.latency, "switch", sw.forward)
}
