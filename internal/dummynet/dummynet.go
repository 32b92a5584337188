// Package dummynet models the FreeBSD Dummynet traffic-shaping subsystem
// that Emulab delay nodes run (Rizzo 1997, paper §2, §4.4).
//
// A Pipe shapes one direction of an emulated link: packets wait in a
// bounded FIFO router queue, drain through a bandwidth stage (one packet
// transmitting at a time at the configured rate), and then sit in a
// delay line for the link's propagation delay before being emitted
// downstream. Both stages are fixed-rate FIFOs, so a packet's exit times
// are known the moment it enters: it leaves the bandwidth stage at
// txEnd = max(arrival, previous txEnd) + size/bandwidth and is emitted
// at txEnd + delay. The pipe therefore fires one event per packet, its
// emission; queue and delay-line membership are read off txEnd.
//
// The package implements the paper's delay-node checkpoint: a live,
// non-destructive serialization of the whole pipe hierarchy — every
// queued packet and every packet "in flight" inside a delay line with its
// remaining delay — plus freeze/resume that virtualizes time so the
// packets experience exactly the delay they were configured for, with the
// checkpoint interval edited out (§4.4).
package dummynet

import (
	"fmt"

	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

// DefaultQueueSlots matches Dummynet's default 50-slot router queue.
const DefaultQueueSlots = 50

// slot is a packet inside the pipe: in the router queue until txEnd,
// then in the delay line until emit. Its timer's callback is bound
// once, when the pipe first allocates the slot; an emitted slot goes
// back to the pipe's free list for the next packet, so a pipe in
// steady state allocates no slots, events or closures per packet.
type slot struct {
	p     *Pipe
	pkt   *simnet.Packet
	txEnd sim.Time // leaves the bandwidth stage
	emit  sim.Time // leaves the delay line
	tm    sim.Timer
}

// Pipe is one shaping stage: bandwidth + delay + loss + bounded queue.
type Pipe struct {
	name string
	sim  *sim.Simulator
	out  simnet.Port

	// Configuration, mirroring a `pipe config` in Dummynet. A change of
	// Bandwidth or Delay applies to packets accepted after it.
	Bandwidth simnet.Bitrate // 0 means unlimited
	Delay     sim.Time
	PLR       float64 // packet loss rate in [0,1]
	Slots     int     // router queue capacity in packets

	// slots holds every packet inside, in entry order; txEnd never
	// decreases along it, so the router queue is its tail.
	slots   sim.FIFO[*slot]
	lastEnd sim.Time // txEnd of the newest packet
	free    []*slot  // emitted slots for reuse
	emitTag string   // event label of emissions

	// While frozen, txEnd and emit stay in the frame of frozeAt; Thaw
	// shifts them by the frozen interval. held counts the newest
	// packets, accepted or restored while frozen: a stopped bandwidth
	// stage sends nothing, so they stay queued until Thaw even when
	// their transmission takes no time.
	frozen  bool
	frozeAt sim.Time
	held    int

	// Statistics.
	Enqueued uint64
	Emitted  uint64
	Dropped  uint64 // queue-full drops
	PLRDrops uint64
}

// NewPipe creates a shaping pipe feeding out.
func NewPipe(s *sim.Simulator, name string, bw simnet.Bitrate, delay sim.Time, out simnet.Port) *Pipe {
	return &Pipe{
		name: name, sim: s, out: out,
		Bandwidth: bw, Delay: delay, Slots: DefaultQueueSlots,
		emitTag: name + ".emit",
	}
}

// clock is the pipe's current time: now, or the freeze instant while
// frozen.
func (p *Pipe) clock() sim.Time {
	if p.frozen {
		return p.frozeAt
	}
	return p.sim.Now()
}

// QueueLen reports packets waiting in (or transmitting from) the router
// queue. A packet whose transmission ends now has left it.
func (p *Pipe) QueueLen() int {
	now, n := p.clock(), 0
	for i := p.slots.Len() - 1; i >= 0 && p.slots.At(i).txEnd > now; i-- {
		n++
	}
	return max(n, p.held)
}

// InFlight reports packets currently in the delay line — the
// bandwidth-delay product the paper's delay-node checkpoint captures.
func (p *Pipe) InFlight() int { return p.slots.Len() - p.QueueLen() }

// Accept implements simnet.Port: a packet enters the router queue. A
// frozen delay node is checkpoint-quiesced; with synchronized
// checkpoints the endpoints are frozen too, so a frozen Accept only
// happens inside the skew window. Such a packet is always queued, even
// past Slots: the stopped bandwidth stage would otherwise turn the skew
// into drops the endpoints see, and the checkpoint would not be
// transparent. The bound applies again to arrivals after Thaw.
func (p *Pipe) Accept(pkt *simnet.Packet) {
	if !p.frozen {
		if p.PLR > 0 && p.sim.Rand().Float64() < p.PLR {
			p.PLRDrops++
			return
		}
		if p.QueueLen() >= p.Slots {
			p.Dropped++
			return
		}
	}
	p.Enqueued++
	if p.frozen {
		p.held++
	}
	txEnd := max(p.clock(), p.lastEnd) + p.Bandwidth.TxTime(pkt.Size)
	p.admit(pkt, txEnd, txEnd+p.Delay)
}

// admit appends pkt to the pipe, due to leave the bandwidth stage at
// txEnd and the delay line at emit, and arms its emission unless the
// pipe is frozen.
func (p *Pipe) admit(pkt *simnet.Packet, txEnd, emit sim.Time) {
	var sl *slot
	if n := len(p.free); n > 0 {
		sl = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		sl = &slot{p: p}
		p.sim.InitTimer(&sl.tm, p.emitTag, sl.fire)
	}
	sl.pkt, sl.txEnd, sl.emit = pkt, txEnd, emit
	p.slots.Push(sl)
	p.lastEnd = txEnd
	if !p.frozen {
		sl.tm.Schedule(emit)
	}
}

// fire emits the slot's packet downstream.
func (sl *slot) fire() {
	p := sl.p
	// Emissions leave in entry order unless Delay shrank while packets
	// were in flight.
	for i := 0; i < p.slots.Len(); i++ {
		if p.slots.At(i) == sl {
			p.slots.Remove(i)
			break
		}
	}
	pkt := sl.pkt
	p.recycle(sl)
	p.Emitted++
	if p.out != nil {
		p.out.Accept(pkt)
	}
}

// recycle returns an unarmed slot to the free list.
func (p *Pipe) recycle(sl *slot) {
	sl.pkt = nil
	p.free = append(p.free, sl)
}

// Freeze suspends the pipe non-destructively: every emission is
// unhooked, and the transmission and emission times stay as they were,
// to be shifted by the frozen interval on Thaw. This is the "suspend
// Dummynet" step of the delay-node checkpoint.
func (p *Pipe) Freeze() {
	if p.frozen {
		return
	}
	p.frozen = true
	p.frozeAt = p.sim.Now()
	for i := 0; i < p.slots.Len(); i++ {
		p.slots.At(i).tm.Stop()
	}
}

// Frozen reports whether the pipe is suspended.
func (p *Pipe) Frozen() bool { return p.frozen }

// Thaw resumes the pipe, virtualizing away the frozen interval: every
// packet resumes with exactly the remaining transmission and delay it
// had at freeze time, so the shaped link characteristics observed by
// the experiment are unchanged (§4.4 "resume execution by unblocking
// Dummynet and virtualizing time to account for the time spent in the
// checkpoint").
func (p *Pipe) Thaw() {
	if !p.frozen {
		return
	}
	p.frozen, p.held = false, 0
	shift := p.sim.Now() - p.frozeAt
	p.lastEnd += shift
	for i := 0; i < p.slots.Len(); i++ {
		sl := p.slots.At(i)
		sl.txEnd += shift
		sl.emit += shift
		sl.tm.Schedule(sl.emit)
	}
}

// Pinner is implemented by a packet payload whose sender recycles it
// once it is delivered. Pin tells the sender that a checkpoint image
// holds the payload, so it must never be reused.
type Pinner interface {
	Pin()
}

// PacketState is one serialized packet with its shaping progress.
type PacketState struct {
	Packet         *simnet.Packet
	RemainingDelay sim.Time // for delay-line packets
}

// PipeState is the serialized form of a Pipe: configuration plus every
// queued and in-flight packet. It is what the delay-node checkpoint
// writes out (§4.4: "a hierarchy of pipes, router queues, and the packets
// queued in those pipes and queues").
type PipeState struct {
	Name        string
	Bandwidth   simnet.Bitrate
	Delay       sim.Time
	PLR         float64
	Slots       int
	Queue       []PacketState
	DelayLine   []PacketState
	HeadTxLeft  sim.Time // remaining bandwidth-stage time, -1 if idle
	StatsEnq    uint64
	StatsEmit   uint64
	StatsDrop   uint64
	StatsPLRDrp uint64
}

// Bytes reports an estimate of the serialized image size: packet wire
// bytes plus fixed metadata, used by swap-time accounting.
func (st *PipeState) Bytes() int {
	n := 128 // pipe header
	for _, q := range st.Queue {
		n += q.Packet.Size + 32
	}
	for _, d := range st.DelayLine {
		n += d.Packet.Size + 32
	}
	return n
}

// Serialize captures the pipe state. The pipe must be frozen: Dummynet is
// suspended before its state is walked, keeping the capture consistent.
// The image holds shallow copies of the packets, whose payloads the live
// pipe still delivers, so Serialize pins every payload that implements
// Pinner: its sender then never recycles it, and the image keeps what it
// captured.
func (p *Pipe) Serialize() (*PipeState, error) {
	if !p.frozen {
		return nil, fmt.Errorf("dummynet: serialize of running pipe %s", p.name)
	}
	st := &PipeState{
		Name: p.name, Bandwidth: p.Bandwidth, Delay: p.Delay, PLR: p.PLR, Slots: p.Slots, HeadTxLeft: -1,
		StatsEnq: p.Enqueued, StatsEmit: p.Emitted, StatsDrop: p.Dropped, StatsPLRDrp: p.PLRDrops,
	}
	for i := 0; i < p.slots.Len(); i++ {
		sl := p.slots.At(i)
		if pn, ok := sl.pkt.Payload.(Pinner); ok {
			pn.Pin()
		}
		if sl.txEnd <= p.frozeAt && i < p.slots.Len()-p.held {
			st.DelayLine = append(st.DelayLine, PacketState{
				Packet:         sl.pkt.Clone(),
				RemainingDelay: sl.emit - p.frozeAt,
			})
			continue
		}
		if len(st.Queue) == 0 {
			st.HeadTxLeft = sl.txEnd - p.frozeAt
		}
		st.Queue = append(st.Queue, PacketState{Packet: sl.pkt.Clone()})
	}
	return st, nil
}

// Restore reconstructs the pipe from a serialized state. The pipe comes
// back frozen; Thaw resumes it with the captured remaining delays and
// the head's remaining transmission.
func (p *Pipe) Restore(st *PipeState) {
	p.Freeze()
	p.Bandwidth, p.Delay, p.PLR, p.Slots = st.Bandwidth, st.Delay, st.PLR, st.Slots
	p.Enqueued, p.Emitted, p.Dropped, p.PLRDrops = st.StatsEnq, st.StatsEmit, st.StatsDrop, st.StatsPLRDrp
	for p.slots.Len() > 0 {
		p.recycle(p.slots.Pop())
	}
	p.frozeAt = p.sim.Now()
	for _, d := range st.DelayLine {
		p.admit(d.Packet.Clone(), p.frozeAt, p.frozeAt+d.RemainingDelay)
	}
	p.lastEnd, p.held = p.frozeAt, len(st.Queue)
	for i, q := range st.Queue {
		tx := p.Bandwidth.TxTime(q.Packet.Size)
		if i == 0 && st.HeadTxLeft >= 0 {
			tx = st.HeadTxLeft
		}
		p.admit(q.Packet.Clone(), p.lastEnd+tx, p.lastEnd+tx+p.Delay)
	}
}

// DelayNode is an Emulab delay node interposed on one duplex link: one
// pipe per direction, plus the checkpoint entry points. The node is
// transparent to the experimental network (§2) — it only shapes.
type DelayNode struct {
	Name    string
	Forward *Pipe // A -> B
	Reverse *Pipe // B -> A
}

// NewDelayNode builds a delay node shaping a duplex link with symmetric
// bandwidth/delay. Outputs are attached later via AttachForward/Reverse.
func NewDelayNode(s *sim.Simulator, name string, bw simnet.Bitrate, delay sim.Time) *DelayNode {
	return &DelayNode{
		Name:    name,
		Forward: NewPipe(s, name+".fwd", bw, delay, nil),
		Reverse: NewPipe(s, name+".rev", bw, delay, nil),
	}
}

// AttachForward connects the A->B pipe output.
func (d *DelayNode) AttachForward(out simnet.Port) { d.Forward.out = out }

// AttachReverse connects the B->A pipe output.
func (d *DelayNode) AttachReverse(out simnet.Port) { d.Reverse.out = out }

// SetLoss configures symmetric packet loss.
func (d *DelayNode) SetLoss(plr float64) {
	d.Forward.PLR = plr
	d.Reverse.PLR = plr
}

// Freeze suspends both directions.
func (d *DelayNode) Freeze() {
	d.Forward.Freeze()
	d.Reverse.Freeze()
}

// Thaw resumes both directions.
func (d *DelayNode) Thaw() {
	d.Forward.Thaw()
	d.Reverse.Thaw()
}

// InFlight reports the total captured bandwidth-delay packets.
func (d *DelayNode) InFlight() int {
	return d.Forward.slots.Len() + d.Reverse.slots.Len()
}

// State is a serialized delay node.
type State struct {
	Name    string
	Forward *PipeState
	Reverse *PipeState
}

// Bytes reports the serialized image size estimate.
func (s *State) Bytes() int { return s.Forward.Bytes() + s.Reverse.Bytes() }

// Serialize captures both pipes; the node must be frozen.
func (d *DelayNode) Serialize() (*State, error) {
	f, err := d.Forward.Serialize()
	if err != nil {
		return nil, err
	}
	r, err := d.Reverse.Serialize()
	if err != nil {
		return nil, err
	}
	return &State{Name: d.Name, Forward: f, Reverse: r}, nil
}

// Restore reconstructs both pipes from a serialized state; the node comes
// back frozen.
func (d *DelayNode) Restore(st *State) {
	d.Forward.Restore(st.Forward)
	d.Reverse.Restore(st.Reverse)
}
