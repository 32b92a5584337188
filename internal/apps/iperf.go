package apps

import (
	"emucheck/internal/guest"
	"emucheck/internal/metrics"
	"emucheck/internal/simnet"
	"emucheck/internal/tcpsim"
)

// Iperf is the Fig. 6 workload: a one-directional TCP stream between
// two nodes. The receiver captures a packet trace (in its own virtual
// time, like tcpdump on the node) from which the evaluation derives
// windowed throughput, inter-packet arrival gaps, and the
// no-retransmission check.
type Iperf struct {
	Sender   *tcpsim.Sender
	Receiver *tcpsim.Receiver

	// Trace records (receiver virtual time, wire bytes) per data
	// segment arrival, up to the last Stop or Flush.
	Trace *metrics.Series
	// log holds the arrivals since then, compact: a stream's trace is
	// expanded once, so it never holds two copies of itself growing.
	log metrics.Log
}

// NewIperf wires an iperf session from the sender kernel to the
// receiver kernel, registering both TCP endpoints on port "iperf".
func NewIperf(snd, rcv *guest.Kernel) *Iperf {
	const port = "iperf"
	ip := &Iperf{Trace: metrics.NewSeries("iperf.trace")}

	pool := &guest.Pool[tcpsim.Segment]{}
	sndEnv := &tcpEnv{k: snd, peer: simnet.Addr(rcv.Name), port: port, pool: pool}
	rcvEnv := &tcpEnv{k: rcv, peer: simnet.Addr(snd.Name), port: port, pool: pool}
	ip.Sender = tcpsim.NewSender(sndEnv, port)
	ip.Receiver = tcpsim.NewReceiver(rcvEnv, port)

	snd.Handle(port, pool.Handler(func(_ simnet.Addr, seg *tcpsim.Segment) { ip.Sender.HandleSegment(seg) }))
	rcv.Handle(port, pool.Handler(func(_ simnet.Addr, seg *tcpsim.Segment) {
		if seg.Len > 0 {
			ip.log.Add(rcv.Monotonic(), int64(seg.WireSize()))
		}
		ip.Receiver.HandleSegment(seg)
	}))
	return ip
}

// Start begins streaming total bytes (-1 = until stopped).
func (ip *Iperf) Start(total int64) { ip.Sender.Stream(total) }

// Stop halts the sender and flushes the trace. Segments still in flight
// arrive after it, into the log.
func (ip *Iperf) Stop() {
	ip.Sender.Close()
	ip.Flush()
}

// Flush moves the arrivals logged since the last Stop or Flush into
// Trace.
func (ip *Iperf) Flush() { ip.log.Flush(ip.Trace) }

// CleanTrace reports whether the session shows none of the artifacts
// the paper checked for in the packet trace: no retransmissions, no
// timeouts, no duplicate data at the receiver.
func (ip *Iperf) CleanTrace() bool {
	return ip.Sender.Retransmits == 0 && ip.Sender.Timeouts == 0 && ip.Receiver.DupData == 0
}
