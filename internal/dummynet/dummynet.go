// Package dummynet models the FreeBSD Dummynet traffic-shaping subsystem
// that Emulab delay nodes run (Rizzo 1997, paper §2, §4.4).
//
// A Pipe shapes one direction of an emulated link: packets first wait in
// a bounded FIFO "router queue", drain through a bandwidth stage (one
// packet transmitting at a time at the configured rate), and then sit in
// a delay line for the link's propagation delay before being emitted
// downstream.
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

// slot is a packet in the delay line, due to be emitted at emit. Its
// timer's callback is bound once, when the pipe first allocates the
// slot; an emitted slot goes back to the pipe's free list for the next
// packet, so a pipe in steady state allocates no slots, events or
// closures per packet.
type slot struct {
	p    *Pipe
	pkt  *simnet.Packet
	emit sim.Time // absolute, in real simulation time
	tm   sim.Timer
}

// Pipe is one shaping stage: bandwidth + delay + loss + bounded queue.
type Pipe struct {
	name string
	sim  *sim.Simulator
	out  simnet.Port

	// Configuration, mirroring a `pipe config` in Dummynet.
	Bandwidth simnet.Bitrate // 0 means unlimited
	Delay     sim.Time
	PLR       float64 // packet loss rate in [0,1]
	Slots     int     // router queue capacity in packets

	queue   sim.FIFO[*simnet.Packet] // router queue; head is transmitting next
	headTx  sim.Timer                // bandwidth-stage completion of the head
	headEnd sim.Time                 // when the head packet finishes transmitting
	line    sim.FIFO[*slot]          // delay line, in entry order
	free    []*slot                  // emitted slots for reuse
	emitTag string                   // event label of delay-line emissions

	frozen   bool
	frozeAt  sim.Time
	headLeft sim.Time // remaining tx time of head packet at freeze

	// Statistics.
	Enqueued uint64
	Emitted  uint64
	Dropped  uint64 // queue-full drops
	PLRDrops uint64
}

// NewPipe creates a shaping pipe feeding out.
func NewPipe(s *sim.Simulator, name string, bw simnet.Bitrate, delay sim.Time, out simnet.Port) *Pipe {
	p := &Pipe{
		name: name, sim: s, out: out,
		Bandwidth: bw, Delay: delay, Slots: DefaultQueueSlots,
		emitTag: name + ".emit",
	}
	s.InitTimer(&p.headTx, name+".tx", p.finishHead)
	return p
}

// Name reports the pipe's configured name.
func (p *Pipe) Name() string { return p.name }

// QueueLen reports packets waiting in (or transmitting from) the router
// queue.
func (p *Pipe) QueueLen() int { return p.queue.Len() }

// InFlight reports packets currently in the delay line — the
// bandwidth-delay product the paper's delay-node checkpoint captures.
func (p *Pipe) InFlight() int { return p.line.Len() }

// Accept implements simnet.Port: a packet enters the router queue.
func (p *Pipe) Accept(pkt *simnet.Packet) {
	if p.frozen {
		// A frozen delay node is checkpoint-quiesced; with synchronized
		// checkpoints the endpoints are frozen too, so this only happens
		// inside the skew window. Queue the packet if there is room: it
		// is part of the captured network state.
		if p.queue.Len() >= p.Slots {
			p.Dropped++
			return
		}
		p.Enqueued++
		p.queue.Push(pkt)
		return
	}
	if p.PLR > 0 && p.sim.Rand().Float64() < p.PLR {
		p.PLRDrops++
		return
	}
	if p.queue.Len() >= p.Slots {
		p.Dropped++
		return
	}
	p.Enqueued++
	p.queue.Push(pkt)
	if p.queue.Len() == 1 {
		p.startHead()
	}
}

// startHead begins the bandwidth stage for the queue head.
func (p *Pipe) startHead() {
	if p.queue.Len() == 0 || p.frozen {
		return
	}
	tx := p.Bandwidth.TxTime(p.queue.Peek().Size)
	p.headEnd = p.sim.Now() + tx
	p.headTx.Schedule(p.headEnd)
}

// finishHead moves the head packet into the delay line.
func (p *Pipe) finishHead() {
	p.enterDelayLine(p.queue.Pop(), p.sim.Now()+p.Delay)
	p.startHead()
}

// enterDelayLine appends pkt to the delay line, due at emit, and arms
// its emission unless the pipe is frozen.
func (p *Pipe) enterDelayLine(pkt *simnet.Packet, emit sim.Time) {
	var sl *slot
	if n := len(p.free); n > 0 {
		sl = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		sl = &slot{p: p}
		p.sim.InitTimer(&sl.tm, p.emitTag, sl.fire)
	}
	sl.pkt, sl.emit = pkt, emit
	p.line.Push(sl)
	if !p.frozen {
		sl.tm.Schedule(emit)
	}
}

// fire emits the slot's packet downstream.
func (sl *slot) fire() {
	p := sl.p
	// Emissions leave in entry order unless Delay shrank while packets
	// were in flight.
	if p.line.Peek() == sl {
		p.line.Pop()
	} else {
		for i := 1; i < p.line.Len(); i++ {
			if p.line.At(i) == sl {
				p.line.Remove(i)
				break
			}
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

// Freeze suspends the pipe non-destructively: the bandwidth stage and all
// delay-line emissions are unhooked with their remaining times recorded.
// This is the "suspend Dummynet" step of the delay-node checkpoint.
func (p *Pipe) Freeze() {
	if p.frozen {
		return
	}
	p.frozen = true
	p.frozeAt = p.sim.Now()
	if p.headTx.Pending() {
		p.headLeft = p.headEnd - p.sim.Now()
		p.headTx.Stop()
	} else {
		p.headLeft = -1
	}
	for i := 0; i < p.line.Len(); i++ {
		p.line.At(i).tm.Stop()
	}
}

// Frozen reports whether the pipe is suspended.
func (p *Pipe) Frozen() bool { return p.frozen }

// Thaw resumes the pipe, virtualizing away the frozen interval: every
// packet resumes with exactly the remaining delay it had at freeze time,
// so the shaped link characteristics observed by the experiment are
// unchanged (§4.4 "resume execution by unblocking Dummynet and
// virtualizing time to account for the time spent in the checkpoint").
func (p *Pipe) Thaw() {
	if !p.frozen {
		return
	}
	p.frozen = false
	now := p.sim.Now()
	// Re-arm delay line with remaining delays.
	for i := 0; i < p.line.Len(); i++ {
		sl := p.line.At(i)
		remaining := sl.emit - p.frozeAt
		if remaining < 0 {
			remaining = 0
		}
		sl.emit = now + remaining
		sl.tm.Schedule(sl.emit)
	}
	// Re-arm the bandwidth stage.
	if p.headLeft >= 0 && p.queue.Len() > 0 {
		p.headEnd = now + p.headLeft
		p.headTx.Schedule(p.headEnd)
	} else if p.queue.Len() > 0 {
		p.startHead()
	}
	p.headLeft = -1
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
func (p *Pipe) Serialize() (*PipeState, error) {
	if !p.frozen {
		return nil, fmt.Errorf("dummynet: serialize of running pipe %s", p.name)
	}
	st := &PipeState{
		Name: p.name, Bandwidth: p.Bandwidth, Delay: p.Delay, PLR: p.PLR, Slots: p.Slots,
		HeadTxLeft:  p.headLeft,
		StatsEnq:    p.Enqueued,
		StatsEmit:   p.Emitted,
		StatsDrop:   p.Dropped,
		StatsPLRDrp: p.PLRDrops,
	}
	for i := 0; i < p.queue.Len(); i++ {
		st.Queue = append(st.Queue, PacketState{Packet: p.queue.At(i).Clone()})
	}
	for i := 0; i < p.line.Len(); i++ {
		sl := p.line.At(i)
		st.DelayLine = append(st.DelayLine, PacketState{
			Packet:         sl.pkt.Clone(),
			RemainingDelay: sl.emit - p.frozeAt,
		})
	}
	return st, nil
}

// Restore reconstructs the pipe from a serialized state. The pipe comes
// back frozen; Thaw resumes it with the captured remaining delays.
func (p *Pipe) Restore(st *PipeState) {
	p.Freeze()
	p.Bandwidth = st.Bandwidth
	p.Delay = st.Delay
	p.PLR = st.PLR
	p.Slots = st.Slots
	p.Enqueued = st.StatsEnq
	p.Emitted = st.StatsEmit
	p.Dropped = st.StatsDrop
	p.PLRDrops = st.StatsPLRDrp
	p.queue.Clear()
	for _, q := range st.Queue {
		p.queue.Push(q.Packet.Clone())
	}
	for p.line.Len() > 0 {
		p.recycle(p.line.Pop())
	}
	p.frozeAt = p.sim.Now()
	for _, d := range st.DelayLine {
		p.enterDelayLine(d.Packet.Clone(), p.frozeAt+d.RemainingDelay)
	}
	p.headLeft = st.HeadTxLeft
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
	return d.Forward.InFlight() + d.Reverse.InFlight() + d.Forward.QueueLen() + d.Reverse.QueueLen()
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
