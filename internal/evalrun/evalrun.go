// Package evalrun regenerates every figure and table of the paper's
// evaluation (§7). Each function builds the experiment the paper
// describes at the paper's size, runs it on the simulated testbed, and
// returns the measured rows/series. Ledger holds the paper's side of
// every printed row: its text, its number and the band the measurement
// must stay in. The benchrunner CLI prints the tables, and its tests
// hold one run of every experiment to the ledger.
package evalrun

import (
	"emucheck"
	"emucheck/internal/apps"
	"emucheck/internal/core"
	"emucheck/internal/emulab"
	"emucheck/internal/guest"
	"emucheck/internal/metrics"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

// CkptInterval is the paper's checkpoint period for §7.1.
const CkptInterval = 5 * sim.Second

// twoNode builds the standard 2-node experiment over a shaped link, as
// a session on a 16-machine pool: the product path a scenario tenant
// takes.
func twoNode(seed int64, bw simnet.Bitrate, delay sim.Time) (*sim.Simulator, *emulab.Experiment) {
	sess := emucheck.NewSession(emucheck.Scenario{Pool: 16, Spec: emulab.Spec{
		Name:  "eval",
		Nodes: []emulab.NodeSpec{{Name: "n0", Swappable: true}, {Name: "n1", Swappable: true}},
		Links: []emulab.LinkSpec{{A: "n0", B: "n1", Bandwidth: bw, Delay: delay}},
	}}, seed)
	return sess.S, sess.Exp
}

// ---------------------------------------------------------------- Fig 4

// Fig4Result is the sleep-loop transparency experiment.
type Fig4Result struct {
	MeanMs      float64
	FracWithin  float64 // fraction of iterations within 28 µs of 20 ms
	CkptMaxErr  sim.Time
	Checkpoints int
}

// Fig4 runs 6000 iterations of the usleep(10 ms) loop under periodic
// checkpointing.
func Fig4(seed int64) *Fig4Result {
	const iters = 6000
	s, e := twoNode(seed, 0, 0)
	k := e.Node("n0").K
	loop := apps.NewSleepLoop(k, iters)
	finished := false
	loop.Run(func() { finished = true })
	pc := &core.PeriodicCheckpointer{C: e.Coord, Interval: CkptInterval, Opts: core.Options{Incremental: true}}
	pc.Start(0)
	limit := sim.Time(iters)*21*sim.Millisecond + sim.Minute
	s.RunFor(limit)
	pc.Stop()
	if !finished {
		panic("fig4: loop did not finish")
	}
	vals := loop.Times.Values()
	res := &Fig4Result{
		MeanMs:      metrics.Mean(vals) / float64(sim.Millisecond),
		FracWithin:  metrics.FractionWithin(vals, 20*float64(sim.Millisecond), 28*float64(sim.Microsecond)),
		Checkpoints: pc.Count(),
	}
	for _, v := range vals {
		err := sim.Time(v) - 20*sim.Millisecond
		if err < 0 {
			err = -err
		}
		if err > res.CkptMaxErr {
			res.CkptMaxErr = err
		}
	}
	return res
}

// Render prints the figure's summary rows.
func (r *Fig4Result) Render() string { return claimTable(r, "Fig 4", "metric", "paper", "measured") }

// ---------------------------------------------------------------- Fig 5

// Fig5Result is the CPU-loop interference experiment.
type Fig5Result struct {
	MeanMs      float64
	FracWithin9 float64 // fraction within 9 ms of the nominal
	MaxOverMs   float64 // worst positive deviation
	Checkpoints int
}

// Fig5 runs 600 iterations of the 236.6 ms CPU job loop under
// periodic checkpointing.
func Fig5(seed int64) *Fig5Result {
	const iters = 600
	s, e := twoNode(seed, 0, 0)
	k := e.Node("n0").K
	loop := apps.NewCPULoop(k, iters)
	finished := false
	loop.Run(func() { finished = true })
	pc := &core.PeriodicCheckpointer{C: e.Coord, Interval: CkptInterval, Opts: core.Options{Incremental: true}}
	pc.Start(0)
	s.RunFor(sim.Time(iters)*260*sim.Millisecond + sim.Minute)
	pc.Stop()
	if !finished {
		panic("fig5: loop did not finish")
	}
	nominal := 236.6 * float64(sim.Millisecond)
	vals := loop.Times.Values()
	res := &Fig5Result{
		MeanMs:      metrics.Mean(vals) / float64(sim.Millisecond),
		FracWithin9: metrics.FractionWithin(vals, nominal, 9*float64(sim.Millisecond)),
		Checkpoints: pc.Count(),
	}
	for _, v := range vals {
		if over := (v - nominal) / float64(sim.Millisecond); over > res.MaxOverMs {
			res.MaxOverMs = over
		}
	}
	return res
}

// Render prints the figure's summary rows.
func (r *Fig5Result) Render() string { return claimTable(r, "Fig 5", "metric", "paper", "measured") }

// ---------------------------------------------------------------- Fig 6

// Fig6Result is the iperf transparency experiment.
type Fig6Result struct {
	Throughput  *metrics.Series `json:"-"` // 20 ms windows, MB/s
	MeanMBps    float64
	MedianGapUs float64 // typical inter-packet arrival
	CkptGapsUs  []float64
	Retransmits int
	Timeouts    int
	DupData     int
	Checkpoints int
}

// Fig6 runs a 25 s iperf session on a 1 Gbps link, checkpointing every
// 5 s, and analyzes the receiver-side packet trace.
func Fig6(seed int64) *Fig6Result {
	s, e := twoNode(seed, simnet.Gbps, 0)
	snd, rcv := e.Node("n0").K, e.Node("n1").K
	ip := apps.NewIperf(snd, rcv)
	ip.Start(-1)
	var ckptAt []sim.Time
	pc := &core.PeriodicCheckpointer{C: e.Coord, Interval: CkptInterval, Opts: core.Options{Incremental: true},
		OnResult: func(r *core.Result) { ckptAt = append(ckptAt, rcv.Monotonic()) }}
	pc.Start(4)
	s.RunFor(25 * sim.Second)
	ip.Stop()
	pc.Stop()

	gaps := metrics.InterArrivals(ip.Trace)
	gapsF := make([]float64, len(gaps))
	for i, g := range gaps {
		gapsF[i] = float64(g)
	}
	res := &Fig6Result{
		Throughput:  metrics.Throughput(ip.Trace, 20*sim.Millisecond),
		MedianGapUs: metrics.Percentile(gapsF, 50) / float64(sim.Microsecond),
		Retransmits: ip.Sender.Retransmits,
		Timeouts:    ip.Sender.Timeouts,
		DupData:     ip.Receiver.DupData,
		Checkpoints: pc.Count(),
	}
	res.MeanMBps = metrics.Mean(res.Throughput.Values())
	// Per-checkpoint gap: the largest inter-arrival in a window around
	// each checkpoint instant (receiver virtual time).
	for _, ct := range ckptAt {
		var worst sim.Time
		for i := 1; i < ip.Trace.Len(); i++ {
			at := ip.Trace.Samples[i].T
			if at >= ct-sim.Second && at <= ct+sim.Second {
				if g := at - ip.Trace.Samples[i-1].T; g > worst {
					worst = g
				}
			}
		}
		res.CkptGapsUs = append(res.CkptGapsUs, worst.Micros())
	}
	return res
}

// Render prints the figure's summary rows.
func (r *Fig6Result) Render() string { return claimTable(r, "Fig 6", "metric", "paper", "measured") }

// ---------------------------------------------------------------- Fig 7

// Fig7Result is the BitTorrent experiment.
type Fig7Result struct {
	// CenterBefore/During/After are mean throughputs per phase (MB/s),
	// averaged across clients — the paper's "center line" check.
	CenterBefore, CenterDuring, CenterAfter float64
	Checkpoints                             int
}

// Fig7 runs the 4-node swarm sharing the paper's 3 GB file on a
// 100 Mbps LAN for 300 s with checkpoints every 5 s during [70 s, 170 s].
func Fig7(seed int64) *Fig7Result {
	const fileMB = 3 << 10
	s := sim.New(seed)
	tb := emulab.NewTestbed(s, 16)
	tb.Params.ExperimentLink = 100 * simnet.Mbps
	e, err := tb.SwapIn(emulab.Spec{
		Name: "bt",
		Nodes: []emulab.NodeSpec{
			{Name: "seeder"}, {Name: "c1"}, {Name: "c2"}, {Name: "c3"},
		},
		LANs: []emulab.LANSpec{{Name: "lan0", Members: []string{"seeder", "c1", "c2", "c3"}}},
	})
	if err != nil {
		panic(err)
	}
	seeder := e.Node("seeder").K
	clients := []*guest.Kernel{e.Node("c1").K, e.Node("c2").K, e.Node("c3").K}
	bt := apps.NewBitTorrent(seeder, clients, fileMB<<20)
	bt.Start()

	// Checkpoint storm during [70 s, 170 s].
	pc := &core.PeriodicCheckpointer{C: e.Coord, Interval: CkptInterval, Opts: core.Options{Incremental: true}}
	s.RunFor(70*sim.Second - CkptInterval)
	pc.Start(20)
	s.RunFor(CkptInterval + 100*sim.Second)
	pc.Stop()
	s.RunFor(130 * sim.Second)

	res := &Fig7Result{Checkpoints: pc.Count()}
	phase := func(tr *metrics.Series, lo, hi sim.Time) float64 {
		th := metrics.Throughput(tr.Between(lo, hi), sim.Second)
		return metrics.Mean(th.Values())
	}
	for _, tr := range bt.SeederTrace {
		res.CenterBefore += phase(tr, 10*sim.Second, 70*sim.Second) / 3
		res.CenterDuring += phase(tr, 70*sim.Second, 170*sim.Second) / 3
		res.CenterAfter += phase(tr, 170*sim.Second, 290*sim.Second) / 3
	}
	return res
}

// Render prints the figure's summary rows.
func (r *Fig7Result) Render() string { return claimTable(r, "Fig 7", "metric", "paper", "measured") }
