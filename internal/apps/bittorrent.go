package apps

import (
	"emucheck/internal/guest"
	"emucheck/internal/metrics"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
	"emucheck/internal/tcpsim"
)

// PieceSize is the BitTorrent piece size (a typical 256 KiB).
const PieceSize = 256 << 10

// btConn is one directed data path between two peers: a TCP stream
// carrying pieces, with a piece queue on the sending side.
type btConn struct {
	snd   *tcpsim.Sender
	rcv   *tcpsim.Receiver
	queue []int // piece indices queued for transmission

	sentBytes    int64 // bytes queued by the application
	extended     int64 // bytes released to TCP so far (pacing)
	pacing       bool
	deliverTotal int64 // cumulative in-order bytes delivered at the receiver
	consumed     int64 // delivered bytes already credited to pieces
}

// BitTorrent is the Fig. 7 workload: one seeder and several clients
// cooperatively downloading a file over a 100 Mbps LAN. The tracker is
// static (the paper modified BitTorrent the same way for
// predictability). Peers request the rarest piece they lack from the
// first peer that has it; every received piece is announced to the
// swarm, so clients serve each other as they accumulate pieces.
type BitTorrent struct {
	Seeder  *guest.Kernel
	Clients []*guest.Kernel
	Pieces  int

	// have[node][piece]
	have  map[string][]bool
	conns map[string]*btConn // "src>dst" -> connection

	// SeederTrace records outgoing data-segment (time, bytes) per
	// client, as captured on the seeder node (the paper's measurement
	// point). Keyed by client name.
	SeederTrace map[string]*metrics.Series

	Completed map[string]bool

	// UploadPace is the application-level per-connection pacing between
	// piece transmissions, standing in for BitTorrent's choking and
	// unchoke-rotation behaviour; the default lands each client near the
	// paper's ~1 MB/s (Fig. 7). Zero disables pacing.
	UploadPace sim.Time

	// req tracks outstanding piece requests per client.
	req map[string][]bool

	// ctl carries the control plane's {kind, piece} messages.
	ctl guest.Pool[[2]int]
}

// NewBitTorrent wires the swarm for a file of the given size.
func NewBitTorrent(seeder *guest.Kernel, clients []*guest.Kernel, fileBytes int64) *BitTorrent {
	bt := &BitTorrent{
		Seeder:      seeder,
		Clients:     clients,
		Pieces:      int((fileBytes + PieceSize - 1) / PieceSize),
		have:        make(map[string][]bool),
		conns:       make(map[string]*btConn),
		SeederTrace: make(map[string]*metrics.Series),
		Completed:   make(map[string]bool),
		UploadPace:  245 * sim.Millisecond,
	}
	bt.have[seeder.Name] = make([]bool, bt.Pieces)
	for i := range bt.have[seeder.Name] {
		bt.have[seeder.Name][i] = true
	}
	all := append([]*guest.Kernel{seeder}, clients...)
	for _, c := range clients {
		bt.have[c.Name] = make([]bool, bt.Pieces)
		bt.SeederTrace[c.Name] = metrics.NewSeries("bt." + c.Name)
	}
	// Full mesh of directed piece streams.
	for _, a := range all {
		for _, b := range all {
			if a != b {
				bt.wire(a, b)
			}
		}
	}
	// Control plane: piece announcements and requests.
	for _, k := range all {
		k := k
		k.Handle("bt-ctl", bt.ctl.Handler(func(from simnet.Addr, msg *[2]int) { bt.onControl(k, from, *msg) }))
	}
	return bt
}

func connKey(src, dst string) string { return src + ">" + dst }

// wire creates the directed TCP stream a -> b.
func (bt *BitTorrent) wire(a, b *guest.Kernel) {
	key := connKey(a.Name, b.Name)
	port := "bt-data:" + key
	pool := &guest.Pool[tcpsim.Segment]{}
	sndEnv := &tcpEnv{k: a, peer: simnet.Addr(b.Name), port: port, pool: pool}
	rcvEnv := &tcpEnv{k: b, peer: simnet.Addr(a.Name), port: port, pool: pool}
	c := &btConn{snd: tcpsim.NewSender(sndEnv, key), rcv: tcpsim.NewReceiver(rcvEnv, key)}
	bt.conns[key] = c

	a.Handle(port, pool.Handler(func(_ simnet.Addr, seg *tcpsim.Segment) { c.snd.HandleSegment(seg) }))
	b.Handle(port, pool.Handler(func(_ simnet.Addr, seg *tcpsim.Segment) {
		if seg.Len > 0 && a == bt.Seeder {
			bt.SeederTrace[b.Name].Add(bt.Seeder.Monotonic(), float64(seg.WireSize()))
		}
		c.rcv.HandleSegment(seg)
	}))
	c.rcv.OnData = func(n int, total int64) {
		c.deliverTotal = total
		bt.onBytes(b, c)
	}
	c.snd.Stream(0) // nothing flows until pieces are queued
}

// queuePiece schedules one piece on the a->b stream, released to TCP
// under the upload pacing.
func (bt *BitTorrent) queuePiece(a, b *guest.Kernel, piece int) {
	c := bt.conns[connKey(a.Name, b.Name)]
	c.queue = append(c.queue, piece)
	c.sentBytes += PieceSize
	if !c.pacing {
		bt.drainPaced(a, c)
	}
}

// drainPaced releases one piece per pacing interval to the TCP stream.
func (bt *BitTorrent) drainPaced(a *guest.Kernel, c *btConn) {
	if c.extended >= c.sentBytes {
		c.pacing = false
		return
	}
	c.pacing = true
	c.extended += PieceSize
	c.snd.Stream(c.extended)
	if bt.UploadPace <= 0 {
		bt.drainPaced(a, c)
		return
	}
	a.AfterVirtual(bt.UploadPace, "bt.pace", func() { bt.drainPaced(a, c) })
}

// onBytes fires as in-order stream bytes land at b: completed pieces
// are marked and announced.
func (bt *BitTorrent) onBytes(b *guest.Kernel, c *btConn) {
	for len(c.queue) > 0 && c.deliverTotal-c.consumed >= PieceSize {
		piece := c.queue[0]
		c.queue = c.queue[1:]
		c.consumed += PieceSize
		bt.completePiece(b, piece)
	}
}

func (bt *BitTorrent) completePiece(b *guest.Kernel, piece int) {
	if bt.have[b.Name][piece] {
		return
	}
	bt.have[b.Name][piece] = true
	// Announce to the swarm.
	for _, peer := range bt.peers(b) {
		bt.ctl.Send(b, simnet.Addr(peer.Name), 80, "bt-ctl", [2]int{announce, piece})
	}
	if bt.countHave(b.Name) == bt.Pieces {
		bt.Completed[b.Name] = true
	}
	bt.requestNext(b)
}

const (
	announce = iota
	request
)

func (bt *BitTorrent) peers(k *guest.Kernel) []*guest.Kernel {
	var out []*guest.Kernel
	if k != bt.Seeder {
		out = append(out, bt.Seeder)
	}
	for _, c := range bt.Clients {
		if c != k {
			out = append(out, c)
		}
	}
	return out
}

// CountHave reports how many pieces the named node holds.
func (bt *BitTorrent) CountHave(name string) int { return bt.countHave(name) }

func (bt *BitTorrent) countHave(name string) int {
	n := 0
	for _, h := range bt.have[name] {
		if h {
			n++
		}
	}
	return n
}

// onControl handles announcements and piece requests.
func (bt *BitTorrent) onControl(k *guest.Kernel, from simnet.Addr, msg [2]int) {
	kind, piece := msg[0], msg[1]
	switch kind {
	case announce:
		bt.requestNext(k)
	case request:
		if bt.have[k.Name][piece] {
			peer := bt.kernelByName(string(from))
			if peer != nil {
				bt.queuePiece(k, peer, piece)
			}
		}
	}
}

func (bt *BitTorrent) kernelByName(name string) *guest.Kernel {
	if bt.Seeder.Name == name {
		return bt.Seeder
	}
	for _, c := range bt.Clients {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// requestNext asks peers for missing pieces, keeping a small pipeline
// of outstanding requests (rarest-first approximated by round-robin
// with per-client stride to decorrelate the clients).
func (bt *BitTorrent) requestNext(k *guest.Kernel) {
	if k == bt.Seeder || bt.Completed[k.Name] {
		return
	}
	outstanding := 0
	for _, peer := range bt.peers(k) {
		c := bt.conns[connKey(peer.Name, k.Name)]
		outstanding += len(c.queue)
	}
	const pipeline = 4
	// Start the scan at a per-client offset to decorrelate the clients;
	// the linear walk still visits every piece.
	start := (int(k.Name[len(k.Name)-1]) * bt.Pieces / 7) % bt.Pieces
	for i := 0; outstanding < pipeline && i < bt.Pieces; i++ {
		piece := (start + i) % bt.Pieces
		if bt.have[k.Name][piece] || bt.requested(k, piece) {
			continue
		}
		// Rarest-first in a swarm this small keeps the seeder primary:
		// seeder-only pieces are the rarest. Requests spill over to
		// fellow clients when the seeder's per-connection queue is deep
		// — that spillover is the peer-to-peer serving the paper's
		// BitTorrent exhibits.
		var ordered []*guest.Kernel
		seederQ := len(bt.conns[connKey(bt.Seeder.Name, k.Name)].queue)
		if seederQ <= 2 {
			ordered = append(ordered, bt.Seeder)
		}
		for _, p := range bt.peers(k) {
			if p != bt.Seeder {
				ordered = append(ordered, p)
			}
		}
		if seederQ > 2 {
			ordered = append(ordered, bt.Seeder)
		}
		for _, peer := range ordered {
			if bt.have[peer.Name][piece] {
				bt.markRequested(k, piece)
				bt.ctl.Send(k, simnet.Addr(peer.Name), 80, "bt-ctl", [2]int{request, piece})
				outstanding++
				break
			}
		}
	}
}

// requested tracking.
func (bt *BitTorrent) requested(k *guest.Kernel, piece int) bool {
	if bt.req == nil {
		return false
	}
	return bt.req[k.Name] != nil && bt.req[k.Name][piece]
}

func (bt *BitTorrent) markRequested(k *guest.Kernel, piece int) {
	if bt.req == nil {
		bt.req = make(map[string][]bool)
	}
	if bt.req[k.Name] == nil {
		bt.req[k.Name] = make([]bool, bt.Pieces)
	}
	bt.req[k.Name][piece] = true
}

// Start kicks every client's request pipeline.
func (bt *BitTorrent) Start() {
	for _, c := range bt.Clients {
		bt.requestNext(c)
	}
}

// AllComplete reports whether every client finished the file.
func (bt *BitTorrent) AllComplete() bool {
	for _, c := range bt.Clients {
		if !bt.Completed[c.Name] {
			return false
		}
	}
	return true
}
