package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"time"

	"emucheck"
	"emucheck/internal/apps"
	"emucheck/internal/emulab"
	"emucheck/internal/metrics"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

// packetSize sizes one packet-ckpt round.
type packetSize struct {
	warm        sim.Time // TCP warm-up before the timed phase (set-up)
	interval    sim.Time // time between synchronous checkpoints
	checkpoints int      // the first is full, the rest incremental
	park        sim.Time // simulated time spent swapped out
	tail        sim.Time // streaming after the lazy swap-in
}

// packetFull is the Fig 6 shape: four checkpoints 5 s apart on a
// 1 Gbps iperf stream, then one stateful swap cycle.
var packetFull = packetSize{
	warm: sim.Second, interval: 5 * sim.Second, checkpoints: 4,
	park: 30 * sim.Second, tail: 3 * sim.Second,
}

// Paper values behind paper_err_pct: Fig 6 (§7.1) shows iperf at about
// 50 MB/s on the 1 Gbps link and these receiver-side packet gaps at the
// four checkpoints, in microseconds.
const paperMBps = 50.0

var paperGapsUs = []float64{5801, 816, 399, 330}

// slice is the RunFor granularity; the event queue depth is sampled
// between slices.
const slice = sim.Second

// clockSlack is how far the receiver's virtual clock may advance while
// the experiment is swapped out (a freeze or thaw leaks a few
// microseconds) before the stream counts as having seen the swap.
const clockSlack = sim.Millisecond

// stream drives a packet-ckpt session: it times the RunFor slices,
// counts the segments sent inside them, and after every public call
// samples the event queue and lets the meter probe the host.
type stream struct {
	sess  *emucheck.Session
	ip    *apps.Iperf
	tr    *tracer
	m     *meter
	host  time.Duration // host time inside RunFor slices
	segs  int           // segments sent inside RunFor slices
	depth int           // deepest event queue seen
}

// run advances the session by d in one-second RunFor slices.
func (st *stream) run(d sim.Time) {
	for d > 0 {
		step := min(d, slice)
		s0, t0 := st.ip.Sender.SegmentsSent, time.Now()
		sp := st.tr.begin("Session.RunFor")
		st.sess.RunFor(step)
		st.tr.end(sp)
		st.host += time.Since(t0)
		st.segs += st.ip.Sender.SegmentsSent - s0
		st.after()
		d -= step
	}
}

func (st *stream) after() {
	st.depth = max(st.depth, st.sess.S.Pending())
	st.m.tick()
}

// clockLeaked reports whether the receiver's virtual clock counted the
// time the experiment was swapped out. From the end of SwapOut to the
// end of SwapIn, the clock moved by vJump, and the guest ran for
// running of it (from its resume to the end of SwapIn); a transparent
// swap hides the rest, the park included, so vJump may exceed running
// only by clockSlack.
func clockLeaked(vJump, running sim.Time) bool {
	return vJump > running+clockSlack
}

// packetRound runs one packet-ckpt round: set-up is NewSession plus
// the TCP warm-up; the timed phase is the checkpointed stream, the
// swap cycle and the tail. Operations are the checkpoints, the
// swap-out, the swap-in and the stream's trace check.
func packetRound(seed int64, sz packetSize, tr *tracer, m *meter) (*round, error) {
	r := &round{layer: map[string]float64{}}

	m.begin()
	sp := tr.begin("emucheck.NewSession")
	sess := emucheck.NewSession(emucheck.Scenario{Spec: emulab.Spec{
		Name:  "fig6",
		Nodes: []emulab.NodeSpec{{Name: "n0", Swappable: true}, {Name: "n1", Swappable: true}},
		Links: []emulab.LinkSpec{{A: "n0", B: "n1", Bandwidth: simnet.Gbps}},
	}}, seed)
	tr.end(sp)
	snd, rcv := sess.Kernel("n0"), sess.Kernel("n1")
	ip := apps.NewIperf(snd, rcv)
	ip.Start(-1)
	st := &stream{sess: sess, ip: ip, tr: tr, m: m}
	st.run(sz.warm)
	r.hostSetup, r.setup = m.end()

	var mem *memDelta
	if tr != nil {
		mem = startMem()
	}
	events0, segs0 := sess.S.Fired(), ip.Sender.SegmentsSent
	st.host, st.segs = 0, 0
	var (
		ckptHost []float64
		ckptAt   []sim.Time
		results  []*emucheck.CheckpointResult
	)
	m.begin()
	for i := 0; i < sz.checkpoints; i++ {
		st.run(sz.interval)
		r.attempted++
		k0 := time.Now()
		sp := tr.begin("Session.Checkpoint")
		res, err := sess.Checkpoint()
		tr.end(sp)
		ckptHost = append(ckptHost, float64(time.Since(k0))/1e6)
		st.after()
		if err != nil {
			r.failed++
			continue
		}
		results = append(results, res)
		ckptAt = append(ckptAt, rcv.Monotonic())
	}

	vBefore := rcv.Monotonic()
	r.attempted += 2
	o0 := time.Now()
	sp = tr.begin("Session.SwapOut")
	outs, outErr := sess.SwapOut()
	tr.end(sp)
	outHost := time.Since(o0)
	st.after()
	vOut := rcv.Monotonic()
	st.run(sz.park)
	i0 := time.Now()
	sp = tr.begin("Session.SwapIn")
	ins, inErr := sess.SwapIn(true)
	tr.end(sp)
	inHost := time.Since(i0)
	st.after()
	vAfter, realAfter := rcv.Monotonic(), sess.Now()
	resumed := realAfter
	for _, n := range ins {
		resumed = min(resumed, n.Finished)
	}
	st.run(sz.tail)
	ip.Stop()
	r.hostWall, r.wall = m.end()
	events, segs := sess.S.Fired()-events0, ip.Sender.SegmentsSent-segs0
	if mem != nil {
		mem.stop()
		mem.record(r.layer, float64(events))
	}
	if outErr != nil || len(outs) == 0 {
		r.failed++
	}
	if inErr != nil || len(ins) == 0 {
		r.failed++
	}

	// The stream is clean when TCP saw no checkpoint or swap: no
	// retransmit, timeout or duplicate data, and the receiver's virtual
	// clock did not count the time swapped out.
	r.attempted++
	vJump := vAfter - vOut
	if !ip.CleanTrace() || clockLeaked(vJump, realAfter-resumed) {
		r.failed++
	}
	if r.failed > 0 {
		fmt.Fprintf(os.Stderr, "packet-ckpt: %d of %d operations failed (swap errors: %v, %v; retransmits %d, timeouts %d, dup data %d; virtual clock moved %v across the swapped-out span, %v of it after the resume)\n",
			r.failed, r.attempted, outErr, inErr, ip.Sender.Retransmits, ip.Sender.Timeouts, ip.Receiver.DupData, vJump, realAfter-resumed)
	}
	d := newDigest()
	d.add(int64(sess.S.Fired()), int64(ip.Sender.SegmentsSent), int64(ip.Trace.Len()), int64(vBefore), int64(vAfter), int64(sess.Now()))
	var swapOut, swapIn sim.Time
	var out struct{ precopy, residual, memory, merged int64 }
	for _, o := range outs {
		d.add(int64(o.Started), int64(o.Finished), o.PreCopyBytes, o.ResidualBytes, o.MemoryBytes, o.MergedBytes)
		swapOut = max(swapOut, o.Duration())
		out.precopy += o.PreCopyBytes
		out.residual += o.ResidualBytes
		out.memory += o.MemoryBytes
		out.merged += o.MergedBytes
	}
	var in struct{ delta, memory, cached, remote int64 }
	var lazyFill sim.Time
	for _, n := range ins {
		d.add(int64(n.Started), int64(n.Finished), int64(n.BackgroundDone), n.DeltaBytes, n.MemoryBytes)
		swapIn = max(swapIn, n.Duration())
		if n.BackgroundDone > 0 {
			lazyFill = max(lazyFill, n.BackgroundDone-n.Finished)
		}
		in.delta += n.DeltaBytes
		in.memory += n.MemoryBytes
		in.cached += n.CachedBytes
		in.remote += n.RemoteBytes
	}
	var skew, downtime float64
	for _, c := range results {
		d.add(int64(c.Epoch), int64(c.SuspendSkew), int64(c.ResumeSkew), int64(c.CompletedAt), c.TotalBytes)
		skew += c.SuspendSkew.Micros() / float64(len(results))
		downtime += c.MaxDowntime().Millis() / float64(len(results))
	}
	r.digest = d.sum()
	r.outage = (swapOut + swapIn).Seconds()

	// Fig 6 analysis of the receiver trace up to the swap-out: mean
	// 20 ms windowed throughput, and the largest packet gap within a
	// second of each checkpoint.
	const window = 20 * sim.Millisecond
	mbps := metrics.Mean(metrics.Throughput(between(ip.Trace, 0, vBefore), window).Values())
	gaps := make([]float64, len(ckptAt))
	errPct := math.Abs(mbps-paperMBps) / paperMBps
	for i, at := range ckptAt {
		if ia := metrics.InterArrivals(between(ip.Trace, at-sim.Second, at+sim.Second)); len(ia) > 0 {
			gaps[i] = slices.Max(ia).Micros()
		}
		if i < len(paperGapsUs) {
			errPct += math.Abs(gaps[i]-paperGapsUs[i]) / paperGapsUs[i]
		}
	}
	errPct = 100 * errPct / float64(1+min(len(gaps), len(paperGapsUs)))

	l := r.layer
	l["swap_out_sim_s"] = swapOut.Seconds()
	l["swap_in_sim_s"] = swapIn.Seconds()
	l["paper_err_pct"] = errPct
	l["makespan_sim_s"] = sess.Now().Seconds()
	l["sim.events"] = float64(events)
	l["sim.ns_per_event"] = float64(r.hostWall) / float64(events)
	l["sim.queue_depth_max"] = float64(st.depth)
	l["tcpsim.segments"] = float64(segs)
	l["packet.events_per_segment"] = float64(events) / float64(segs)
	l["packet.host_ns_per_segment"] = float64(st.host) / float64(st.segs)
	l["tcpsim.goodput_mb_s"] = mbps
	l["tcpsim.retransmits"] = float64(ip.Sender.Retransmits)
	l["tcpsim.timeouts"] = float64(ip.Sender.Timeouts)
	l["tcpsim.dup_data"] = float64(ip.Receiver.DupData)
	l["core.checkpoint_host_ms"] = median(ckptHost)
	l["core.ckpt_gap_us"] = metrics.Mean(gaps)
	l["core.downtime_ms"] = downtime
	l["core.suspend_skew_us"] = skew
	if len(results) > 0 {
		l["core.image_mb"] = mb(results[0].TotalBytes)
	}
	l["core.epochs_committed"] = float64(len(results))
	l["core.epochs_aborted"] = float64(sess.EpochsAborted())
	l["notify.published"] = float64(sess.TB.Bus.Published)
	l["notify.delivered"] = float64(sess.TB.Bus.Delivered)
	l["swap.out_host_ms"] = float64(outHost) / 1e6
	l["swap.in_host_ms"] = float64(inHost) / 1e6
	l["swap.precopy_mb"] = mb(out.precopy)
	l["swap.residual_mb"] = mb(out.residual)
	l["swap.memory_mb"] = mb(out.memory)
	l["swap.merged_mb"] = mb(out.merged)
	l["swap.in_delta_mb"] = mb(in.delta)
	l["swap.lazy_fill_s"] = lazyFill.Seconds()
	l["swap.traffic_mb"] = mb(out.precopy + out.residual + out.memory + in.delta + in.memory)
	l["storage.local_mb"] = mb(in.cached)
	l["storage.remote_mb"] = mb(in.remote)
	return r, nil
}

// between is Series.Between without the copy: the samples with
// lo <= T < hi of a time-ordered series, sharing its storage. The
// receiver trace holds millions of samples, and copying it would add
// tens of MB to the peak RSS the benchmark reports.
func between(s *metrics.Series, lo, hi sim.Time) *metrics.Series {
	at := func(t sim.Time) int {
		return sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].T >= t })
	}
	return &metrics.Series{Name: s.Name, Samples: s.Samples[at(lo):at(hi)]}
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }
