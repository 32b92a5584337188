package apps

import (
	"testing"

	"emucheck/internal/guest"
	"emucheck/internal/metrics"
	"emucheck/internal/node"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

func oneKernel(seed int64) (*sim.Simulator, *guest.Kernel) {
	s := sim.New(seed)
	p := node.DefaultParams()
	m := node.NewMachine(s, "n0", p)
	return s, guest.New(m, p, guest.DefaultConfig())
}

func linkedKernels(seed int64, names []string, rate simnet.Bitrate) (*sim.Simulator, []*guest.Kernel) {
	s := sim.New(seed)
	p := node.DefaultParams()
	p.ExperimentLink = rate
	sw := simnet.NewSwitch(s, 2*sim.Microsecond)
	var ks []*guest.Kernel
	for _, n := range names {
		m := node.NewMachine(s, n, p)
		k := guest.New(m, p, guest.DefaultConfig())
		m.ExpNIC.Attach(sw)
		sw.Connect(m.ExpNIC.Addr(), m.ExpNIC)
		ks = append(ks, k)
	}
	return s, ks
}

func TestSleepLoopBaseline(t *testing.T) {
	s, k := oneKernel(1)
	a := NewSleepLoop(k, 200)
	finished := false
	a.Run(func() { finished = true })
	s.RunFor(10 * sim.Second)
	if !finished {
		t.Fatal("loop incomplete")
	}
	if a.Times.Len() != 200 {
		t.Fatalf("samples = %d", a.Times.Len())
	}
	mean := a.Times.Mean() / float64(sim.Millisecond)
	if mean < 19.9 || mean > 20.1 {
		t.Fatalf("mean iteration %.3f ms, want ~20", mean)
	}
	// 97% of iterations accurate to within 28 µs (Fig. 4).
	frac := metrics.FractionWithin(a.Times.Values(), 20*float64(sim.Millisecond), 28*float64(sim.Microsecond))
	if frac < 0.9 {
		t.Fatalf("only %.0f%% of iterations within 28us", frac*100)
	}
}

func TestCPULoopBaseline(t *testing.T) {
	s, k := oneKernel(1)
	a := NewCPULoop(k, 50)
	finished := false
	a.Run(func() { finished = true })
	s.RunFor(60 * sim.Second)
	if !finished {
		t.Fatal("loop incomplete")
	}
	mean := a.Times.Mean() / float64(sim.Millisecond)
	if mean < 236 || mean > 238 {
		t.Fatalf("mean %.1f ms, want ~236.6", mean)
	}
}

func TestIperfStreamsAndTraces(t *testing.T) {
	s, ks := linkedKernels(1, []string{"snd", "rcv"}, simnet.Gbps)
	ip := NewIperf(ks[0], ks[1])
	ip.Start(16 << 20)
	s.RunFor(10 * sim.Second)
	if !ip.Sender.Done() {
		t.Fatalf("transfer incomplete: %d", ip.Sender.Acked())
	}
	if !ip.CleanTrace() {
		t.Fatalf("loss-free run has artifacts: rtx=%d", ip.Sender.Retransmits)
	}
	ip.Flush()
	if ip.Trace.Len() < 1000 {
		t.Fatalf("trace too small: %d", ip.Trace.Len())
	}
	// Sustained throughput should be a solid fraction of 1 Gbps.
	gaps := metrics.InterArrivals(ip.Trace)
	med := metrics.Percentile(toF(gaps), 50)
	if med > 40*float64(sim.Microsecond) {
		t.Fatalf("median inter-packet %.1fus too slow", med/float64(sim.Microsecond))
	}
}

func toF(ts []sim.Time) []float64 {
	out := make([]float64, len(ts))
	for i, v := range ts {
		out[i] = float64(v)
	}
	return out
}

func TestIperfUnbounded(t *testing.T) {
	s, ks := linkedKernels(2, []string{"snd", "rcv"}, simnet.Gbps)
	ip := NewIperf(ks[0], ks[1])
	ip.Start(-1)
	s.RunFor(2 * sim.Second)
	if ip.Receiver.Delivered() < 50<<20 {
		t.Fatalf("delivered only %d in 2s", ip.Receiver.Delivered())
	}
	ip.Stop()
}

func TestBitTorrentSwarmCompletes(t *testing.T) {
	s, ks := linkedKernels(3, []string{"seeder", "c1", "c2", "c3"}, 100*simnet.Mbps)
	bt := NewBitTorrent(ks[0], ks[1:], 8<<20) // 8 MB, 32 pieces
	bt.Start()
	s.RunFor(5 * sim.Minute)
	if !bt.AllComplete() {
		for _, c := range bt.Clients {
			t.Logf("%s: %d/%d pieces", c.Name, bt.countHave(c.Name), bt.Pieces)
		}
		t.Fatal("swarm incomplete")
	}
	// The seeder trace must show traffic to every client.
	for name, tr := range bt.SeederTrace {
		if tr.Len() == 0 {
			t.Fatalf("no seeder traffic to %s", name)
		}
	}
}

func TestBitTorrentPeerSharing(t *testing.T) {
	s, ks := linkedKernels(4, []string{"seeder", "c1", "c2", "c3"}, 100*simnet.Mbps)
	bt := NewBitTorrent(ks[0], ks[1:], 16<<20)
	bt.Start()
	s.RunFor(10 * sim.Minute)
	if !bt.AllComplete() {
		t.Fatal("incomplete")
	}
	// Peers act as servers too (paper: "once a peer has downloaded a
	// part of a file, it serves that part to other peers"): seeder
	// upload should be well under 3x the file size.
	var seederBytes float64
	for _, tr := range bt.SeederTrace {
		for _, smp := range tr.Samples {
			seederBytes += smp.V
		}
	}
	if seederBytes >= 3*16<<20 {
		t.Fatalf("no peer sharing: seeder pushed %.0f MB for a 16 MB file", seederBytes/(1<<20))
	}
}

func TestBonnieShapes(t *testing.T) {
	results := map[BonnieOp]float64{}
	for _, op := range BonnieOps {
		s, k := oneKernel(5)
		b := NewBonnie(k)
		b.FileBytes = 64 << 20 // keep the unit test quick
		done := false
		b.Run(op, func(mbps float64) { results[op] = mbps; done = true })
		s.RunFor(sim.Hour)
		if !done {
			t.Fatalf("%v incomplete", op)
		}
	}
	if results[BlockWrites] < 40 || results[BlockWrites] > 75 {
		t.Fatalf("block writes %.1f MB/s", results[BlockWrites])
	}
	if results[BlockRewrites] >= results[BlockWrites] {
		t.Fatal("rewrites should be slower than writes")
	}
	if results[CharWrites] >= results[BlockWrites] {
		t.Fatal("char writes should trail block writes")
	}
	if results[CharReads] >= results[BlockReads] {
		t.Fatal("char reads should trail block reads")
	}
}

func TestFileCopyThroughputSeries(t *testing.T) {
	s, k := oneKernel(6)
	fc := NewFileCopy(k, 64<<20)
	done := false
	fc.Run(func() { done = true })
	s.RunFor(sim.Minute)
	if !done {
		t.Fatal("copy incomplete")
	}
	if fc.Throughput.Len() < 2 {
		t.Fatalf("throughput samples = %d", fc.Throughput.Len())
	}
	if fc.ExecutionDur <= 0 {
		t.Fatal("no duration")
	}
	// Read+write copy: plausible mid-teens MB/s on one spindle.
	mean := fc.Throughput.Mean()
	if mean < 8 || mean > 40 {
		t.Fatalf("copy throughput %.1f MB/s implausible", mean)
	}
}
