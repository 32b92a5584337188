// Package tcpsim is a compact TCP implementation for the simulated
// guests: slow start, congestion avoidance, fast retransmit on three
// duplicate ACKs, and an RTO timer with SRTT estimation.
//
// The paper's network experiments hinge on flow-controlled traffic that
// *would* expose a broken checkpoint: §7.1 verifies from the iperf
// packet trace that checkpoints caused "no retransmissions, double
// acknowledgements, or changes of window size". This implementation
// counts exactly those events so the reproduction can assert the same.
// All timers run inside the temporal firewall (they are guest kernel
// timers), so a transparent checkpoint must not trip them.
package tcpsim

import (
	"sort"

	"emucheck/internal/sim"
)

// MSS is the maximum segment payload (1500-byte MTU minus headers).
const MSS = 1448

// WireOverhead is the per-segment header cost on the wire.
const WireOverhead = 52

// MinRTO mirrors Linux's 200 ms minimum retransmission timeout.
const MinRTO = 200 * sim.Millisecond

// Segment is one TCP segment. Every segment carries a cumulative ACK.
type Segment struct {
	Conn  string
	Seq   int64 // first payload byte
	Len   int   // payload bytes (0 for a pure ACK)
	Ack   int64 // cumulative acknowledgement
	Wnd   int64 // advertised receive window
	Rtx   bool  // marked when this is a retransmission
	SentV sim.Time
}

// WireSize reports the segment's size on the wire.
func (g *Segment) WireSize() int { return g.Len + WireOverhead }

// Timer is a reusable one-shot alarm. Start arms it to fire d from now
// and is only called while the timer is idle: before its first arm,
// after it fired, or after Stop. Stop disarms it.
type Timer interface {
	Start(d sim.Time)
	Stop()
}

// Env abstracts the guest kernel services TCP needs. Timers must be
// guest virtual-time timers (inside the firewall).
type Env interface {
	Now() sim.Time
	// NewTimer returns an idle Timer that runs fn each time it fires.
	NewTimer(name string, fn func()) Timer
	// Output hands a segment to the network path. The segment comes by
	// value, so the sender and receiver allocate nothing per segment;
	// the environment decides where the copy lives on the wire, and may
	// reuse that storage once the peer's HandleSegment returns: neither
	// Sender nor Receiver keeps a *Segment past the call.
	Output(seg Segment)
}

// Sender is the transmitting half of a one-directional stream.
type Sender struct {
	env  Env
	conn string

	una      int64 // oldest unacknowledged byte
	nxt      int64 // next byte to send
	cwnd     int64
	ssthresh int64
	rwnd     int64
	goal     int64 // total bytes the app wants sent; -1 = unbounded
	closed   bool

	dupAcks   int
	rto       sim.Time
	srtt      sim.Time
	rttvar    sim.Time
	rtoTimer  Timer
	rtoArmed  bool
	rttSeq    int64 // sequence being timed
	rttSentAt sim.Time

	// OnProgress, if set, is called with newly acknowledged byte counts.
	OnProgress func(n int64)

	// Statistics the evaluation asserts on.
	Retransmits  int
	Timeouts     int
	FastRecovers int
	SegmentsSent int
}

// NewSender creates a sender for connection id conn.
func NewSender(env Env, conn string) *Sender {
	s := &Sender{
		env: env, conn: conn,
		cwnd: 2 * MSS, ssthresh: 1 << 20, rwnd: 256 << 10, goal: -1,
		rto: MinRTO, rttSeq: -1,
	}
	s.rtoTimer = env.NewTimer(conn+".rto", s.onRTO)
	return s
}

// Stream sets the total bytes to send; -1 streams forever. It kicks the
// transmit pump.
func (s *Sender) Stream(total int64) {
	s.goal = total
	s.pump()
}

// InFlight reports unacknowledged bytes.
func (s *Sender) InFlight() int64 { return s.nxt - s.una }

// Acked reports cumulative acknowledged bytes.
func (s *Sender) Acked() int64 { return s.una }

// Done reports whether a bounded stream is fully acknowledged.
func (s *Sender) Done() bool { return s.goal >= 0 && s.una >= s.goal }

func (s *Sender) window() int64 {
	w := s.cwnd
	if s.rwnd < w {
		w = s.rwnd
	}
	return w
}

// pump transmits while the window allows.
func (s *Sender) pump() {
	for !s.closed {
		if s.goal >= 0 && s.nxt >= s.goal {
			return
		}
		if s.InFlight()+MSS > s.window() {
			return
		}
		n := int64(MSS)
		if s.goal >= 0 && s.goal-s.nxt < n {
			n = s.goal - s.nxt
		}
		seg := Segment{Conn: s.conn, Seq: s.nxt, Len: int(n), Wnd: s.rwnd, SentV: s.env.Now()}
		if s.rttSeq < 0 {
			// Time this segment for SRTT (Karn's rule: only new data).
			s.rttSeq = s.nxt
			s.rttSentAt = s.env.Now()
		}
		s.nxt += n
		s.SegmentsSent++
		s.armRTO()
		s.env.Output(seg)
	}
}

func (s *Sender) armRTO() {
	if s.rtoArmed {
		return
	}
	s.rtoArmed = true
	s.rtoTimer.Start(s.rto)
}

func (s *Sender) stopRTO() {
	if s.rtoArmed {
		s.rtoTimer.Stop()
		s.rtoArmed = false
	}
}

func (s *Sender) rearmRTO() {
	s.stopRTO()
	if s.InFlight() > 0 {
		s.armRTO()
	}
}

func (s *Sender) onRTO() {
	s.rtoArmed = false
	if s.InFlight() == 0 {
		return
	}
	// Timeout: collapse to slow start and retransmit the hole.
	s.Timeouts++
	s.ssthresh = max64(s.InFlight()/2, 2*MSS)
	s.cwnd = MSS
	s.dupAcks = 0
	s.rto *= 2
	s.retransmit()
	s.armRTO()
}

func (s *Sender) retransmit() {
	n := int64(MSS)
	if s.goal >= 0 && s.goal-s.una < n {
		n = s.goal - s.una
	}
	if n <= 0 {
		return
	}
	s.Retransmits++
	s.SegmentsSent++
	s.env.Output(Segment{Conn: s.conn, Seq: s.una, Len: int(n), Wnd: s.rwnd, Rtx: true, SentV: s.env.Now()})
}

// HandleSegment processes an inbound (pure-ACK) segment from the peer.
func (s *Sender) HandleSegment(g *Segment) {
	s.rwnd = g.Wnd
	switch {
	case g.Ack > s.una:
		newly := g.Ack - s.una
		s.una = g.Ack
		s.dupAcks = 0
		// RTT sample.
		if s.rttSeq >= 0 && g.Ack > s.rttSeq {
			s.updateRTT(s.env.Now() - s.rttSentAt)
			s.rttSeq = -1
		}
		// Window growth.
		if s.cwnd < s.ssthresh {
			s.cwnd += newly // slow start
		} else {
			s.cwnd += MSS * MSS / s.cwnd // congestion avoidance
		}
		s.rearmRTO()
		if s.OnProgress != nil {
			s.OnProgress(newly)
		}
		s.pump()
	case g.Ack == s.una && s.InFlight() > 0:
		s.dupAcks++
		if s.dupAcks == 3 {
			// Fast retransmit + simplified fast recovery.
			s.FastRecovers++
			s.ssthresh = max64(s.InFlight()/2, 2*MSS)
			s.cwnd = s.ssthresh + 3*MSS
			s.retransmit()
		} else if s.dupAcks > 3 {
			s.cwnd += MSS
			s.pump()
		}
	}
}

func (s *Sender) updateRTT(sample sim.Time) {
	if s.srtt == 0 {
		s.srtt = sample
		s.rttvar = sample / 2
	} else {
		d := sample - s.srtt
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < MinRTO {
		s.rto = MinRTO
	}
}

// SRTT reports the smoothed RTT estimate.
func (s *Sender) SRTT() sim.Time { return s.srtt }

// Close stops the transmit pump and its timer.
func (s *Sender) Close() {
	s.closed = true
	s.stopRTO()
}

// Receiver is the receiving half: it reassembles the stream, emits one
// cumulative ACK per data segment, and reports in-order delivery.
type Receiver struct {
	env  Env
	conn string

	rcvNxt int64
	wnd    int64
	ooo    map[int64]int // seq -> len of out-of-order segments

	// OnData receives (newly delivered in-order bytes, total delivered).
	OnData func(n int, total int64)

	// Statistics for the paper's trace checks.
	SegmentsRcvd int
	DupData      int
	AcksSent     int
	WndChanges   int
}

// NewReceiver creates a receiver for connection id conn.
func NewReceiver(env Env, conn string) *Receiver {
	return &Receiver{env: env, conn: conn, wnd: 256 << 10, ooo: make(map[int64]int)}
}

// Delivered reports total in-order bytes handed to the application.
func (r *Receiver) Delivered() int64 { return r.rcvNxt }

// HandleSegment processes an inbound data segment and responds with a
// cumulative ACK.
func (r *Receiver) HandleSegment(g *Segment) {
	r.SegmentsRcvd++
	switch {
	case g.Seq == r.rcvNxt:
		delivered := g.Len
		r.rcvNxt += int64(g.Len)
		// Drain contiguous out-of-order data.
		for len(r.ooo) > 0 {
			l, ok := r.ooo[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.ooo, r.rcvNxt)
			r.rcvNxt += int64(l)
			delivered += l
		}
		if r.OnData != nil && delivered > 0 {
			r.OnData(delivered, r.rcvNxt)
		}
	case g.Seq > r.rcvNxt:
		r.ooo[g.Seq] = g.Len
	default:
		r.DupData++
	}
	r.AcksSent++
	r.env.Output(Segment{Conn: r.conn, Ack: r.rcvNxt, Wnd: r.wnd, SentV: r.env.Now()})
}

// OOOSegments reports buffered out-of-order segments (sorted, for tests).
func (r *Receiver) OOOSegments() []int64 {
	out := make([]int64, 0, len(r.ooo))
	for s := range r.ooo {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
