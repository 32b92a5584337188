package suite

import (
	"math"
	"runtime"
	"testing"

	"emucheck"
	"emucheck/internal/apps"
	"emucheck/internal/emulab"
	"emucheck/internal/scenario"
	"emucheck/internal/scengen"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

// fig6Digest pins the event schedule of fig6Schedule at seed 1. A
// change that moves, adds or removes any event of the packet path,
// including a same-instant tie-break, changes it.
const fig6Digest uint64 = 0xcbf2bec88831d219

// fig6Session builds the Fig 6 rig, two nodes on a 1 Gbps shaped link
// (so packets cross a delay node), with an unbounded iperf stream
// started from n0 to n1.
func fig6Session(seed int64) (*emucheck.Session, *apps.Iperf) {
	sess := emucheck.NewSession(emucheck.Scenario{Spec: emulab.Spec{
		Name:  "fig6",
		Nodes: []emulab.NodeSpec{{Name: "n0", Swappable: true}, {Name: "n1", Swappable: true}},
		Links: []emulab.LinkSpec{{A: "n0", B: "n1", Bandwidth: simnet.Gbps}},
	}}, seed)
	ip := apps.NewIperf(sess.Kernel("n0"), sess.Kernel("n1"))
	ip.Start(-1)
	return sess, ip
}

// fig6Schedule runs a short Fig 6 session through four synchronous
// checkpoints and returns the simulator's schedule digest.
func fig6Schedule(t *testing.T, seed int64) uint64 {
	t.Helper()
	sess, _ := fig6Session(seed)
	for i := 0; i < 4; i++ {
		sess.RunFor(250 * sim.Millisecond)
		if _, err := sess.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	sess.RunFor(250 * sim.Millisecond)
	return sess.S.ScheduleDigest()
}

// TestScheduleDigestReplaysInProcess repeats each workload three times
// in one process and requires the same event schedule every time. Go
// randomizes map iteration per range statement, so a model that orders
// same-instant events by ranging over a map diverges here even when
// every rounded report digest agrees. The generated scenarios are the
// quorum and two-phase-commit shapes whose guests re-arm several
// timers at one instant across a checkpoint.
func TestScheduleDigestReplaysInProcess(t *testing.T) {
	for run := 0; run < 3; run++ {
		if got := fig6Schedule(t, 1); got != fig6Digest {
			t.Fatalf("fig6 run %d: schedule digest %016x, pinned %016x", run, got, fig6Digest)
		}
	}
	for _, i := range []int{4, 5, 12} {
		f := scengen.Generate(1, i)
		var first uint64
		for run := 0; run < 3; run++ {
			_, c, err := scenario.RunWithCluster(f)
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			d := c.S.ScheduleDigest()
			if run == 0 {
				first = d
			} else if d != first {
				t.Fatalf("%s run %d: schedule digest %016x, first run %016x", f.Name, run, d, first)
			}
		}
	}
}

// maxAllocsPerSegment bounds the heap allocations one TCP data segment
// costs on the steady packet path, with its ACK: none. Each guest
// message travels in a guest.Pool carrier holding the segment, the
// message and its packet; the port handler returns a delivered carrier
// to its connection's pool and the next send takes it, so the warm-up
// second grows the list to the peak in flight and the measured windows
// only reuse it. Events, firewall handles, delay-line slots and
// closures are all reused too.
const maxAllocsPerSegment = 0

// TestPacketPathAllocsPerSegment holds the Fig 6 stream to its
// allocation budget over two simulated seconds of 1 Gbps iperf, after
// a warm-up second that grows the pools to their peak.
//
// Two costs outside the packet path may show in a window. The
// receiver's packet trace is the app's tcpdump: its log takes a fixed
// 1 MiB chunk about every five and a half simulated seconds of this
// stream (TestLogAllocs bounds that), and the three measured windows
// lie within ten seconds (AllocsPerRun runs each twice), so at most two
// of them see one. And the Go runtime can allocate inside a window on
// its own, as when a GC mark worker blocks on a semaphore and takes a
// fresh sudog. Both only ever add, so the best of three windows is the
// path's cost. A per-segment allocation shows in every window.
func TestPacketPathAllocsPerSegment(t *testing.T) {
	sess, ip := fig6Session(1)
	sess.RunFor(sim.Second)
	best := math.Inf(1)
	for range 3 {
		segs := 0
		allocs := testing.AllocsPerRun(1, func() {
			s0 := ip.Sender.SegmentsSent
			sess.RunFor(2 * sim.Second)
			segs = ip.Sender.SegmentsSent - s0
		})
		if segs == 0 {
			t.Fatal("no segments sent")
		}
		t.Logf("%.0f allocs over %d segments", allocs, segs)
		best = min(best, allocs/float64(segs))
	}
	t.Logf("%.2f allocs per segment", best)
	if best > maxAllocsPerSegment {
		t.Fatalf("%.2f allocs per segment, budget %d", best, maxAllocsPerSegment)
	}
}

// maxAllocsPerControlEvent bounds the heap allocations per simulated
// event of a guest control-plane session: sleep loops, block writes,
// synchronous checkpoints and stateful swap cycles with their offline
// delta merge. Sleep handles and block-request completions are pooled,
// the disk queues requests by value behind one reused timer, the
// current delta appends into its run in place, merges reuse the
// volume's runs, a committed epoch is the one extent run EpochBlocks
// returned and a prune folds it into the base's storage, and NTP draws
// allocate nothing. What is left, about 0.05 per event,
// is the orchestration of each checkpoint and swap: coordinator and
// hypervisor callbacks, notification barriers, and the swap pipeline's
// staging. The budget is 15% above the 455 allocations over 8645
// events measured once block I/O stopped allocating.
const maxAllocsPerControlEvent = 0.061

// TestControlPathAllocsPerEvent holds a sleep-loop plus disk-churn
// session to its allocation budget over three checkpoints and two
// swap-out/swap-in cycles, after a warm-up cycle of each.
func TestControlPathAllocsPerEvent(t *testing.T) {
	sess := emucheck.NewSession(emucheck.Scenario{Spec: emulab.Spec{
		Name:  "control",
		Nodes: []emulab.NodeSpec{{Name: "n0", Swappable: true}, {Name: "n1", Swappable: true}},
		Links: []emulab.LinkSpec{{A: "n0", B: "n1", Bandwidth: simnet.Gbps}},
	}}, 1)
	sleeper, churner := sess.Kernel("n0"), sess.Kernel("n1")
	var sleep func()
	sleep = func() { sleeper.Usleep(sim.Millisecond, sleep) }
	sleep()
	var off int64
	var churn func()
	wrote := func() {
		off += 512 << 10
		churner.Usleep(5*sim.Millisecond, churn)
	}
	churn = func() { churner.WriteDisk(1<<30+off%(1<<30), 512<<10, wrote) }
	churn()
	cycle := func() {
		for i := 0; i < 3; i++ {
			sess.RunFor(sim.Second)
			if _, err := sess.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
		for i := 0; i < 2; i++ {
			sess.RunFor(sim.Second)
			if _, err := sess.SwapOut(); err != nil {
				t.Fatalf("swap-out: %v", err)
			}
			if _, err := sess.SwapIn(false); err != nil {
				t.Fatalf("swap-in: %v", err)
			}
		}
	}
	cycle()
	var events uint64
	allocs := testing.AllocsPerRun(1, func() {
		e0 := sess.S.Fired()
		cycle()
		events = sess.S.Fired() - e0
	})
	perEvent := allocs / float64(events)
	t.Logf("%.0f allocs over %d events: %.3f per event", allocs, events, perEvent)
	if perEvent > maxAllocsPerControlEvent {
		t.Fatalf("%.3f allocs per event, budget %v", perEvent, maxAllocsPerControlEvent)
	}
}

// maxCorpusBytesPerEvent bounds the heap bytes allocated per fired
// event over the golden matrix's timeshare, incremental and remediate
// scenarios: multi-tenant swap cycles, incremental epoch commits and
// crash recovery over guest block and message traffic. The corpus is
// GC-bound (docs/scale.md), so every byte allocated is wall time. The
// budget is 15% above the 26.5 bytes per event measured once the
// volume index held extents, the guest message fit 96 bytes and the
// notification bus recycled its deliveries (52.3 before).
const maxCorpusBytesPerEvent = 30.4

// TestCorpusBytesPerEventAllocs holds the corpus's allocation volume to
// its budget: each scenario runs once through scenario.RunWithCluster,
// and the bytes it allocated, set-up included, are divided by the
// events its simulator fired.
func TestCorpusBytesPerEventAllocs(t *testing.T) {
	var bytes, events uint64
	var ms runtime.MemStats
	for i := range 48 {
		f := scengen.Generate(1, i)
		switch scengen.Shapes[i%len(scengen.Shapes)] {
		case "timeshare", "incremental", "remediate":
		default:
			continue
		}
		runtime.ReadMemStats(&ms)
		b0 := ms.TotalAlloc
		_, c, err := scenario.RunWithCluster(f)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		bytes += ms.TotalAlloc - b0
		events += c.S.Fired()
	}
	perEvent := float64(bytes) / float64(events)
	t.Logf("%d bytes over %d events: %.1f per event", bytes, events, perEvent)
	if perEvent > maxCorpusBytesPerEvent {
		t.Fatalf("%.1f bytes per event, budget %v", perEvent, maxCorpusBytesPerEvent)
	}
}
