package dummynet

import (
	"math/rand"
	"slices"
	"testing"

	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

// refPipe is the stepped pipe model the analytic Pipe replaced, kept as
// the reference for TestPipeMatchesSteppedReference. It fires two
// events per packet: a router queue drains through a bandwidth stage
// whose head completes on its own timer, and only then does the packet
// enter the delay line, where a second timer emits it.
type refPipe struct {
	sim *sim.Simulator
	out simnet.Port

	Bandwidth simnet.Bitrate
	Delay     sim.Time
	PLR       float64
	Slots     int

	queue   sim.FIFO[*simnet.Packet] // router queue; head is transmitting next
	headTx  sim.Timer                // bandwidth-stage completion of the head
	headEnd sim.Time                 // when the head packet finishes transmitting
	line    sim.FIFO[*refSlot]       // delay line, in entry order

	frozen   bool
	frozeAt  sim.Time
	headLeft sim.Time // remaining tx time of head packet at freeze

	Enqueued, Emitted, Dropped, PLRDrops uint64
}

// refSlot is a packet in the reference delay line, due at emit.
type refSlot struct {
	p    *refPipe
	pkt  *simnet.Packet
	emit sim.Time
	tm   sim.Timer
}

func newRefPipe(s *sim.Simulator, bw simnet.Bitrate, delay sim.Time, out simnet.Port) *refPipe {
	p := &refPipe{sim: s, out: out, Bandwidth: bw, Delay: delay, Slots: DefaultQueueSlots, headLeft: -1}
	s.InitTimer(&p.headTx, "ref.tx", p.finishHead)
	return p
}

func (p *refPipe) QueueLen() int { return p.queue.Len() }

func (p *refPipe) InFlight() int { return p.line.Len() }

func (p *refPipe) Accept(pkt *simnet.Packet) {
	if p.frozen {
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

func (p *refPipe) startHead() {
	if p.queue.Len() == 0 || p.frozen {
		return
	}
	p.headEnd = p.sim.Now() + p.Bandwidth.TxTime(p.queue.Peek().Size)
	p.headTx.Schedule(p.headEnd)
}

func (p *refPipe) finishHead() {
	p.enterDelayLine(p.queue.Pop(), p.sim.Now()+p.Delay)
	p.startHead()
}

func (p *refPipe) enterDelayLine(pkt *simnet.Packet, emit sim.Time) {
	sl := &refSlot{p: p, pkt: pkt, emit: emit}
	p.sim.InitTimer(&sl.tm, "ref.emit", sl.fire)
	p.line.Push(sl)
	if !p.frozen {
		sl.tm.Schedule(emit)
	}
}

func (sl *refSlot) fire() {
	p := sl.p
	for i := 0; i < p.line.Len(); i++ {
		if p.line.At(i) == sl {
			p.line.Remove(i)
			break
		}
	}
	p.Emitted++
	p.out.Accept(sl.pkt)
}

func (p *refPipe) Freeze() {
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

func (p *refPipe) Thaw() {
	if !p.frozen {
		return
	}
	p.frozen = false
	now := p.sim.Now()
	for i := 0; i < p.line.Len(); i++ {
		sl := p.line.At(i)
		sl.emit = now + max(sl.emit-p.frozeAt, 0)
		sl.tm.Schedule(sl.emit)
	}
	if p.headLeft >= 0 && p.queue.Len() > 0 {
		p.headEnd = now + p.headLeft
		p.headTx.Schedule(p.headEnd)
	} else if p.queue.Len() > 0 {
		p.startHead()
	}
	p.headLeft = -1
}

func (p *refPipe) Serialize() *PipeState {
	st := &PipeState{
		Bandwidth: p.Bandwidth, Delay: p.Delay, PLR: p.PLR, Slots: p.Slots,
		HeadTxLeft: p.headLeft,
		StatsEnq:   p.Enqueued, StatsEmit: p.Emitted, StatsDrop: p.Dropped, StatsPLRDrp: p.PLRDrops,
	}
	for i := 0; i < p.queue.Len(); i++ {
		st.Queue = append(st.Queue, PacketState{Packet: p.queue.At(i).Clone()})
	}
	for i := 0; i < p.line.Len(); i++ {
		sl := p.line.At(i)
		st.DelayLine = append(st.DelayLine, PacketState{Packet: sl.pkt.Clone(), RemainingDelay: sl.emit - p.frozeAt})
	}
	return st
}

func (p *refPipe) Restore(st *PipeState) {
	p.Freeze()
	p.Bandwidth, p.Delay, p.PLR, p.Slots = st.Bandwidth, st.Delay, st.PLR, st.Slots
	p.Enqueued, p.Emitted, p.Dropped, p.PLRDrops = st.StatsEnq, st.StatsEmit, st.StatsDrop, st.StatsPLRDrp
	p.queue.Clear()
	for _, q := range st.Queue {
		p.queue.Push(q.Packet.Clone())
	}
	p.line.Clear()
	p.frozeAt = p.sim.Now()
	for _, d := range st.DelayLine {
		p.enterDelayLine(d.Packet.Clone(), p.frozeAt+d.RemainingDelay)
	}
	p.headLeft = st.HeadTxLeft
}

// emission is one packet leaving a pipe.
type emission struct {
	id uint64
	at sim.Time
}

// TestPipeMatchesSteppedReference drives the analytic Pipe and the
// stepped reference with the same seeded inputs: packet sizes and
// arrival times, bandwidth, delay, loss and a small queue so drops
// happen, freezes that land mid-transmission, packets accepted while
// frozen, and Serialize→Restore with a non-empty queue. Each model runs
// on its own simulator with the same seed, so their loss draws agree.
// Every operation happens after both simulators have delivered all
// events up to its instant. Before each one, the two pipes must agree
// on QueueLen, InFlight and every counter; at the end, on the emitted
// (ID, time) sequence. A snapshot must hold the same packets with the
// same remaining delays; where the reference has not started its head
// (HeadTxLeft -1), the analytic pipe reports the head's full
// transmission time, which restores to the same schedule.
func TestPipeMatchesSteppedReference(t *testing.T) {
	rates := []simnet.Bitrate{0, simnet.Mbps, 10 * simnet.Mbps, 100 * simnet.Mbps, simnet.Gbps}
	// Coverage of the cases the test exists for, summed over seeds.
	var midTx, queuedRestores, drops, frozenAccepts int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bw := rates[rng.Intn(len(rates))]
		if rng.Intn(3) == 0 {
			bw = simnet.Bitrate(1+rng.Intn(1000)) * simnet.Mbps
		}
		delay := sim.Time(rng.Intn(4)) * sim.Time(rng.Int63n(int64(2*sim.Millisecond)))
		plr := []float64{0, 0, 0.1}[rng.Intn(3)]
		slots := 1 + rng.Intn(6)

		sA, sB := sim.New(seed), sim.New(seed)
		var gotA, gotB []emission
		p := NewPipe(sA, "p", bw, delay, simnet.PortFunc(func(pkt *simnet.Packet) {
			gotA = append(gotA, emission{pkt.ID, sA.Now()})
		}))
		ref := newRefPipe(sB, bw, delay, simnet.PortFunc(func(pkt *simnet.Packet) {
			gotB = append(gotB, emission{pkt.ID, sB.Now()})
		}))
		p.PLR, ref.PLR = plr, plr
		p.Slots, ref.Slots = slots, slots

		probe := func(op int) {
			t.Helper()
			if a, b := p.QueueLen(), ref.QueueLen(); a != b {
				t.Fatalf("seed %d op %d at %v: QueueLen %d, reference %d", seed, op, sA.Now(), a, b)
			}
			if a, b := p.InFlight(), ref.InFlight(); a != b {
				t.Fatalf("seed %d op %d at %v: InFlight %d, reference %d", seed, op, sA.Now(), a, b)
			}
			a := [4]uint64{p.Enqueued, p.Emitted, p.Dropped, p.PLRDrops}
			b := [4]uint64{ref.Enqueued, ref.Emitted, ref.Dropped, ref.PLRDrops}
			if a != b {
				t.Fatalf("seed %d op %d at %v: counters %v, reference %v", seed, op, sA.Now(), a, b)
			}
		}
		now, id := sim.Time(0), uint64(0)
		for op := 0; op < 80; op++ {
			now += 1 + sim.Time(rng.Int63n(int64(400*sim.Microsecond)))
			sA.RunUntil(now)
			sB.RunUntil(now)
			probe(op)
			switch r := rng.Intn(20); {
			case r < 15:
				id++
				if p.Frozen() {
					frozenAccepts++
				}
				size := 64 + rng.Intn(1437)
				p.Accept(&simnet.Packet{ID: id, Size: size})
				ref.Accept(&simnet.Packet{ID: id, Size: size})
			case r < 17 && !p.Frozen():
				p.Freeze()
				ref.Freeze()
				if ref.headLeft > 0 {
					midTx++
				}
			case r < 19 && p.Frozen():
				st, err := p.Serialize()
				if err != nil {
					t.Fatal(err)
				}
				want := ref.Serialize()
				checkSnapshot(t, seed, op, p, st, want)
				if len(want.Queue) > 0 {
					queuedRestores++
				}
				p.Restore(st)
				ref.Restore(want)
			default:
				p.Thaw()
				ref.Thaw()
			}
		}
		sA.RunUntil(now + 1)
		sB.RunUntil(now + 1)
		probe(-1)
		p.Thaw()
		ref.Thaw()
		sA.Run()
		sB.Run()
		probe(-2)
		drops += int(ref.Dropped)
		if !slices.Equal(gotA, gotB) {
			t.Fatalf("seed %d: emitted %v,\nreference %v", seed, gotA, gotB)
		}
	}
	if midTx == 0 || queuedRestores == 0 || drops == 0 || frozenAccepts == 0 {
		t.Fatalf("coverage: %d mid-transmission freezes, %d restores with a queue, %d drops, %d frozen accepts",
			midTx, queuedRestores, drops, frozenAccepts)
	}
	t.Logf("%d mid-transmission freezes, %d restores with a queue, %d drops, %d frozen accepts",
		midTx, queuedRestores, drops, frozenAccepts)
}

// checkSnapshot compares the analytic pipe's snapshot st with the
// reference's snapshot want.
func checkSnapshot(t *testing.T, seed int64, op int, p *Pipe, st, want *PipeState) {
	t.Helper()
	// Each packet with its remaining delay (zero in the queue).
	ids := func(ps []PacketState) []emission {
		var out []emission
		for _, x := range ps {
			out = append(out, emission{x.Packet.ID, x.RemainingDelay})
		}
		return out
	}
	if !slices.Equal(ids(st.Queue), ids(want.Queue)) || !slices.Equal(ids(st.DelayLine), ids(want.DelayLine)) {
		t.Fatalf("seed %d op %d: snapshot queue %v line %v, reference queue %v line %v", seed, op,
			ids(st.Queue), ids(st.DelayLine), ids(want.Queue), ids(want.DelayLine))
	}
	head := want.HeadTxLeft
	if head < 0 && len(want.Queue) > 0 {
		head = p.Bandwidth.TxTime(want.Queue[0].Packet.Size)
	}
	if st.HeadTxLeft != head {
		t.Fatalf("seed %d op %d: HeadTxLeft %v, reference %v (%v)", seed, op, st.HeadTxLeft, want.HeadTxLeft, head)
	}
}
