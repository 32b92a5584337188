package apps

import (
	"testing"

	"emucheck/internal/dummynet"
	"emucheck/internal/guest"
	"emucheck/internal/node"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

// TestIperfDetectsLoss is the negative control for Fig. 6's "no
// retransmissions" check: on a genuinely lossy link the trace MUST show
// retransmissions, proving the detector is live and the clean traces in
// the checkpoint experiments are meaningful.
func TestIperfDetectsLoss(t *testing.T) {
	s := sim.New(1)
	p := node.DefaultParams()
	ma := node.NewMachine(s, "snd", p)
	mb := node.NewMachine(s, "rcv", p)
	ka := guest.New(ma, p, guest.DefaultConfig())
	kb := guest.New(mb, p, guest.DefaultConfig())
	lossy := dummynet.NewPipe(s, "lossy", 0, 0, simnet.NewWire(s, sim.Millisecond, mb.ExpNIC))
	lossy.PLR = 0.005
	ma.ExpNIC.Attach(lossy)
	mb.ExpNIC.Attach(simnet.NewWire(s, sim.Millisecond, ma.ExpNIC))
	ip := NewIperf(ka, kb)
	ip.Start(8 << 20)
	s.RunFor(60 * sim.Second)
	if ip.CleanTrace() {
		t.Fatal("0.5% loss produced a clean trace: the detector is dead")
	}
	if ip.Sender.Retransmits == 0 {
		t.Fatal("no retransmissions under loss")
	}
	if !ip.Sender.Done() {
		t.Fatalf("TCP failed to recover: %d/%d", ip.Sender.Acked(), 8<<20)
	}
}

func TestSleepLoopAcrossLocalCheckpoint(t *testing.T) {
	s, k := oneKernel(2)
	a := NewSleepLoop(k, 100)
	a.Run(nil)
	s.RunFor(500 * sim.Millisecond)
	k.Suspend(func() {})
	s.RunFor(5 * sim.Second)
	k.Resume(nil)
	s.RunFor(10 * sim.Second)
	if a.Times.Len() != 100 {
		t.Fatalf("iterations = %d", a.Times.Len())
	}
	if worst := a.Times.Max(); worst > 20.5*float64(sim.Millisecond) {
		t.Fatalf("worst iteration %.3f ms across a 5 s checkpoint", worst/float64(sim.Millisecond))
	}
}

func TestCPULoopIterationJitterBaseline(t *testing.T) {
	s, k := oneKernel(3)
	a := NewCPULoop(k, 30)
	a.Run(nil)
	s.RunFor(30 * sim.Second)
	// With no dom0 activity at all, iterations are exact.
	for i, v := range a.Times.Values() {
		if sim.Time(v) != 236600*sim.Microsecond {
			t.Fatalf("iteration %d = %v with idle dom0", i, sim.Time(v))
		}
	}
}

func TestBonnieRewriteSlowerOnCOWDueToLogSeeks(t *testing.T) {
	// Rewrites alternate reads (from the written region) and writes (to
	// the log head); on the COW store these are distant, costing seeks.
	s := sim.New(4)
	p := node.DefaultParams()
	m := node.NewMachine(s, "d", p)
	k := guest.New(m, p, guest.DefaultConfig())
	b := NewBonnie(k)
	b.FileBytes = 32 << 20
	var write, rewrite float64
	done := 0
	b.Run(BlockWrites, func(mbps float64) { write = mbps; done++ })
	s.RunFor(sim.Hour)
	b.Run(BlockRewrites, func(mbps float64) { rewrite = mbps; done++ })
	s.RunFor(sim.Hour)
	if done != 2 {
		t.Fatal("bonnie incomplete")
	}
	if rewrite >= write {
		t.Fatalf("rewrite %.1f not slower than write %.1f", rewrite, write)
	}
}

func TestFileCopySecondBucketsCoverRun(t *testing.T) {
	s, k := oneKernel(5)
	fc := NewFileCopy(k, 32<<20)
	fc.Run(nil)
	s.RunFor(sim.Minute)
	var total float64
	for _, smp := range fc.Throughput.Samples {
		total += smp.V
	}
	if total < 31 || total > 33 {
		t.Fatalf("throughput buckets sum to %.1f MB for a 32 MB copy", total)
	}
}

func TestBitTorrentCompletionIdempotent(t *testing.T) {
	s, ks := linkedKernels(6, []string{"seeder", "c1"}, 100*simnet.Mbps)
	bt := NewBitTorrent(ks[0], ks[1:], 4<<20)
	bt.UploadPace = 0 // as fast as TCP allows
	bt.Start()
	s.RunFor(5 * sim.Minute)
	if !bt.AllComplete() {
		t.Fatalf("single client incomplete: %d/%d", bt.CountHave("c1"), bt.Pieces)
	}
	// A duplicate announce after completion must not wedge anything.
	bt.Start()
	s.RunFor(sim.Second)
}
