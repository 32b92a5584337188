// Benchmarks that regenerate the paper's evaluation (§7): one benchmark
// per figure and table. Each reports the figure's headline quantities as
// custom benchmark metrics, so `go test -bench=. -benchmem` prints the
// reproduction alongside runtime cost. The underlying experiments are
// deterministic; results are cached across b.N iterations so Go's
// benchmark calibration does not re-run multi-minute simulations.
package emucheck_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"emucheck"
	"emucheck/internal/emulab"
	"emucheck/internal/evalrun"
	"emucheck/internal/federation"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
	"emucheck/internal/suite"
)

// demoSpecForBench mirrors the 2-node demo experiment used by the
// in-package tests. (This file lives in the external test package so
// evalrun — which imports emucheck for the timeshare benchmark — can be
// benchmarked without an import cycle.)
func demoSpecForBench() emulab.Spec {
	return emulab.Spec{
		Name: "demo",
		Nodes: []emulab.NodeSpec{
			{Name: "a", Swappable: true},
			{Name: "b", Swappable: true},
		},
		Links: []emulab.LinkSpec{{
			A: "a", B: "b",
			Bandwidth: 100 * simnet.Mbps,
			Delay:     5 * sim.Millisecond,
		}},
	}
}

// Reduced-size workloads keep the full bench suite in CI territory while
// preserving every claim under test; benchrunner runs paper-scale.
const benchSeed = 1

var (
	fig4Once sync.Once
	fig4Res  *evalrun.Fig4Result
	fig5Once sync.Once
	fig5Res  *evalrun.Fig5Result
	fig6Once sync.Once
	fig6Res  *evalrun.Fig6Result
	fig7Once sync.Once
	fig7Res  *evalrun.Fig7Result
	fig8Once sync.Once
	fig8Res  *evalrun.Fig8Result
	fig9Once sync.Once
	fig9Res  *evalrun.Fig9Result
	swapOnce sync.Once
	swapRes  *evalrun.SwapTableResult
	fbOnce   sync.Once
	fbRes    *evalrun.FreeBlockResult
	syncOnce sync.Once
	syncRes  *evalrun.SyncResult
	domOnce  sync.Once
	domRes   *evalrun.Dom0JobsResult
)

// BenchmarkFig4SleepLoop regenerates Figure 4: the usleep(10 ms) loop
// under 5 s-periodic transparent checkpoints.
func BenchmarkFig4SleepLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig4Once.Do(func() { fig4Res = evalrun.Fig4(benchSeed, 3000) })
	}
	b.ReportMetric(fig4Res.MeanMs, "ms/iter")
	b.ReportMetric(fig4Res.FracWithin*100, "%within28us")
	b.ReportMetric(fig4Res.CkptMaxErr.Micros(), "us-worst-ckpt-err")
	if fig4Res.CkptMaxErr > 150*sim.Microsecond {
		b.Fatalf("transparency broken: worst error %v", fig4Res.CkptMaxErr)
	}
}

// BenchmarkFig5CPULoop regenerates Figure 5: the 236.6 ms CPU job under
// periodic checkpoints, bounded by residual dom0 interference.
func BenchmarkFig5CPULoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig5Once.Do(func() { fig5Res = evalrun.Fig5(benchSeed, 300) })
	}
	b.ReportMetric(fig5Res.MeanMs, "ms/iter")
	b.ReportMetric(fig5Res.MaxOverMs, "ms-worst-over")
	if fig5Res.MaxOverMs > 27 {
		b.Fatalf("interference above the paper's 27 ms bound: %.1f ms", fig5Res.MaxOverMs)
	}
}

// BenchmarkFig6Iperf regenerates Figure 6: a 1 Gbps iperf stream across
// four checkpoints — no retransmissions, gaps bounded by clock sync.
func BenchmarkFig6Iperf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig6Once.Do(func() { fig6Res = evalrun.Fig6(benchSeed) })
	}
	b.ReportMetric(fig6Res.MeanMBps, "MB/s")
	b.ReportMetric(fig6Res.MedianGapUs, "us-interpkt")
	if len(fig6Res.CkptGapsUs) > 0 {
		b.ReportMetric(fig6Res.CkptGapsUs[0], "us-first-ckpt-gap")
	}
	if fig6Res.Retransmits != 0 || fig6Res.Timeouts != 0 || fig6Res.DupData != 0 {
		b.Fatalf("checkpoint perturbed TCP: rtx=%d to=%d dup=%d",
			fig6Res.Retransmits, fig6Res.Timeouts, fig6Res.DupData)
	}
}

// BenchmarkFig7BitTorrent regenerates Figure 7: the 4-node swarm with a
// 100 s checkpoint storm; the throughput center line must not move.
func BenchmarkFig7BitTorrent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig7Once.Do(func() { fig7Res = evalrun.Fig7(benchSeed, 512) })
	}
	b.ReportMetric(fig7Res.CenterBefore, "MB/s-before")
	b.ReportMetric(fig7Res.CenterDuring, "MB/s-during")
	b.ReportMetric(fig7Res.CenterAfter, "MB/s-after")
	lo, hi := fig7Res.CenterBefore*0.85, fig7Res.CenterBefore*1.15
	if fig7Res.CenterDuring < lo || fig7Res.CenterDuring > hi {
		b.Fatalf("center line moved: %.2f -> %.2f MB/s", fig7Res.CenterBefore, fig7Res.CenterDuring)
	}
}

// BenchmarkFig8Bonnie regenerates Figure 8: Bonnie++ over Base,
// Branch-Orig and Branch storage.
func BenchmarkFig8Bonnie(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig8Once.Do(func() { fig8Res = evalrun.Fig8(benchSeed, 256) })
	}
	b.ReportMetric(fig8Res.FreshWriteOverheadPct, "%fresh-overhead")
	b.ReportMetric(fig8Res.AgedWriteOverheadPct, "%aged-overhead")
	b.ReportMetric(fig8Res.OrigWriteSlowdownPct, "%orig-slowdown")
	if fig8Res.OrigWriteSlowdownPct < 50 {
		b.Fatalf("read-before-write penalty missing: %.0f%%", fig8Res.OrigWriteSlowdownPct)
	}
}

// BenchmarkFig9Background regenerates Figure 9: background transfer
// interference on a disk-bound workload.
func BenchmarkFig9Background(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig9Once.Do(func() { fig9Res = evalrun.Fig9(benchSeed, 512) })
	}
	b.ReportMetric(fig9Res.EagerOverheadPct, "%eager-exec-overhead")
	b.ReportMetric(fig9Res.LazyOverheadPct, "%lazy-exec-overhead")
	b.ReportMetric(fig9Res.LazyThroughputDropPct, "%lazy-tput-drop")
	if fig9Res.LazyOverheadPct < fig9Res.EagerOverheadPct {
		b.Fatal("lazy copy-in should cost more than eager pre-copy")
	}
}

// BenchmarkSwapCycles regenerates the §7.2 swap table: four consecutive
// stateful swap cycles, lazy vs eager, plus the disk-loaded slowdown.
func BenchmarkSwapCycles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		swapOnce.Do(func() { swapRes = evalrun.SwapTable(benchSeed) })
	}
	last := swapRes.Rows[len(swapRes.Rows)-1]
	b.ReportMetric(last.SwapOut.Seconds(), "s-swapout-c4")
	b.ReportMetric(last.SwapInLazy.Seconds(), "s-swapin-lazy-c4")
	b.ReportMetric(last.SwapInEager.Seconds(), "s-swapin-eager-c4")
	b.ReportMetric(swapRes.DiskLoadedOutPct, "%busy-slowdown")
	if last.SwapInEager < 2*last.SwapInLazy {
		b.Fatalf("lazy optimization ineffective by cycle 4: eager %.0fs vs lazy %.0fs",
			last.SwapInEager.Seconds(), last.SwapInLazy.Seconds())
	}
}

// BenchmarkFreeBlockElimination regenerates the §5.1 make/make-clean
// delta-shrink experiment (490 MB -> 36 MB in the paper).
func BenchmarkFreeBlockElimination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fbOnce.Do(func() { fbRes = evalrun.FreeBlockTable(benchSeed) })
	}
	b.ReportMetric(float64(fbRes.RawMB), "MB-raw-delta")
	b.ReportMetric(float64(fbRes.LiveMB), "MB-live-delta")
	if fbRes.LiveMB*4 > fbRes.RawMB {
		b.Fatalf("elimination weak: %d MB -> %d MB", fbRes.RawMB, fbRes.LiveMB)
	}
}

// BenchmarkSyncSkew regenerates the §4.3 synchronization comparison.
func BenchmarkSyncSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		syncOnce.Do(func() { syncRes = evalrun.SyncTable(benchSeed) })
	}
	b.ReportMetric(syncRes.ScheduledSkew.Micros(), "us-scheduled-skew")
	b.ReportMetric(syncRes.EventSkew.Micros(), "us-event-skew")
	if syncRes.EventSkew <= syncRes.ScheduledSkew {
		b.Fatal("scheduled checkpoints should beat event-driven ones")
	}
}

// BenchmarkDom0Jobs regenerates the §7.1 dom0-interference calibration.
func BenchmarkDom0Jobs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		domOnce.Do(func() { domRes = evalrun.Dom0Jobs(benchSeed) })
	}
	b.ReportMetric(domRes.ExtraMs["ls /"], "ms-ls")
	b.ReportMetric(domRes.ExtraMs["sum vmlinux"], "ms-sum")
	b.ReportMetric(domRes.ExtraMs["xm list"], "ms-xmlist")
}

var (
	ablOnce sync.Once
	ablRes  *evalrun.AblationResult
)

// BenchmarkAblationDelayNodeCapture compares checkpointing with and
// without the §4.4 delay-node capture: without it, the bandwidth-delay
// product of the link lands in endpoint replay logs instead of the
// network core.
func BenchmarkAblationDelayNodeCapture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ablOnce.Do(func() { ablRes = evalrun.AblationDelayNode(benchSeed) })
	}
	b.ReportMetric(float64(ablRes.CapturedInCore), "pkts-in-core")
	b.ReportMetric(float64(ablRes.EndpointLogWith), "pkts-endpoint-with")
	b.ReportMetric(float64(ablRes.EndpointLogWithout), "pkts-endpoint-without")
	if ablRes.EndpointLogWithout <= ablRes.EndpointLogWith {
		b.Fatal("ablation shows no effect: delay-node capture not doing its job")
	}
}

var (
	tsOnce sync.Once
	tsRes  *evalrun.TimeshareResult
)

// BenchmarkTimeshare regenerates the multi-tenancy table comparing
// incremental (dirty-delta lineage), full-copy stateful, and stateless
// swapping on an oversubscribed pool. The incremental pipeline must
// move strictly fewer bytes and finish the 3-tenant scenario in less
// simulated time than full copies.
func BenchmarkTimeshare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// The default 900-tick workload forces repeat preemptions per
		// tenant; shorter targets park each tenant only once, and a
		// first swap-out is always a full save (no base on the server),
		// which would make the two stateful modes indistinguishable.
		tsOnce.Do(func() { tsRes = evalrun.Timeshare(benchSeed, 0) })
	}
	b.ReportMetric(tsRes.StatefulIncr.MovedMB, "MB-incremental")
	b.ReportMetric(tsRes.Stateful.MovedMB, "MB-fullcopy")
	b.ReportMetric(tsRes.StatefulIncr.AllDoneS, "s-done-incremental")
	b.ReportMetric(tsRes.Stateful.AllDoneS, "s-done-fullcopy")
	b.ReportMetric(tsRes.StatefulIncr.PreemptedMB, "MB-preempted-incremental")
	if tsRes.StatefulIncr.MovedMB >= tsRes.Stateful.MovedMB {
		b.Fatalf("incremental swap moved %.0f MB, full-copy %.0f MB",
			tsRes.StatefulIncr.MovedMB, tsRes.Stateful.MovedMB)
	}
	if tsRes.StatefulIncr.AllDoneS <= 0 || tsRes.StatefulIncr.AllDoneS >= tsRes.Stateful.AllDoneS {
		b.Fatalf("incremental finished at %.0f s, full-copy at %.0f s",
			tsRes.StatefulIncr.AllDoneS, tsRes.Stateful.AllDoneS)
	}
}

var (
	brOnce sync.Once
	brRes  *evalrun.BranchResult
)

// BenchmarkBranch regenerates the branch fan-out table: the same 4-way
// fork of a checkpointed parent staged via the refcounted shared
// lineage (one multicast pass, clone-aware restore) versus naive
// per-branch full copies. Sharing must move strictly fewer control-LAN
// bytes and have the whole frontier in service strictly sooner.
func BenchmarkBranch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		brOnce.Do(func() { brRes = evalrun.BranchTable(benchSeed, 4) })
	}
	b.ReportMetric(brRes.Shared.MovedMB, "MB-shared")
	b.ReportMetric(brRes.Naive.MovedMB, "MB-naive")
	b.ReportMetric(brRes.Shared.AllRunningS, "s-frontier-shared")
	b.ReportMetric(brRes.Naive.AllRunningS, "s-frontier-naive")
	b.ReportMetric(brRes.Shared.MulticastSavedMB, "MB-mcast-saved")
	if brRes.Shared.AllRunningS <= 0 || brRes.Naive.AllRunningS <= 0 {
		b.Fatalf("fan-out frontier never fully in service: shared %.0f s, naive %.0f s",
			brRes.Shared.AllRunningS, brRes.Naive.AllRunningS)
	}
	if brRes.Shared.MovedMB >= brRes.Naive.MovedMB {
		b.Fatalf("shared fan-out moved %.0f MB, naive %.0f MB — no byte savings",
			brRes.Shared.MovedMB, brRes.Naive.MovedMB)
	}
	if brRes.Shared.AllRunningS >= brRes.Naive.AllRunningS {
		b.Fatalf("shared frontier live at %.0f s, naive at %.0f s — no wall-clock win",
			brRes.Shared.AllRunningS, brRes.Naive.AllRunningS)
	}
}

var (
	remOnce sync.Once
	remRes  *evalrun.RemediateResult
)

// BenchmarkRemediate regenerates the crash-handling table: a two-node
// tenant fail-stopped mid-run, revived by the autonomous health loop
// under each detection preset, by a scripted recovery from its last
// committed checkpoint epoch (across epoch periods), or by restart from
// scratch. The scripted oracle at the default epoch period and every
// unattended mode must strictly beat restart on both MTTR (time back to
// pre-crash progress) and lost work — the acceptance bar for making
// checkpoints durable and recovering from them without an operator.
func BenchmarkRemediate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		remOnce.Do(func() { remRes = evalrun.Remediate(benchSeed, false) })
	}
	scripted, rst := remRes.Row("scripted"), remRes.Row("restart")
	if scripted == nil || rst == nil {
		b.Fatalf("missing rows: %+v", remRes.Rows)
	}
	b.ReportMetric(scripted.MTTRS, "s-mttr-scripted")
	b.ReportMetric(rst.MTTRS, "s-mttr-restart")
	b.ReportMetric(scripted.LostWorkS, "s-lost-scripted")
	b.ReportMetric(rst.LostWorkS, "s-lost-restart")
	b.ReportMetric(scripted.BackInServiceS, "s-back-in-service")
	for _, row := range remRes.Rows {
		if row.Mode != "scripted" && !strings.HasPrefix(row.Mode, "auto@") {
			continue
		}
		if !row.Recovered {
			b.Fatalf("%s never restored pre-crash progress: %+v", row.Mode, row)
		}
		if row.MTTRS >= rst.MTTRS {
			b.Fatalf("%s MTTR %.0f s, restart %.0f s — no repair-time win", row.Mode, row.MTTRS, rst.MTTRS)
		}
		if row.LostWorkS >= rst.LostWorkS {
			b.Fatalf("%s lost %.1f s of work, restart %.1f s — no lost-work win", row.Mode, row.LostWorkS, rst.LostWorkS)
		}
	}
}

var (
	stOnce sync.Once
	stRes  *evalrun.StorageResult
)

// BenchmarkStorageCache regenerates the tiered-storage table: the same
// fleet of tenants parked and resumed over the remote chain tier, with
// and without the node-local delta cache. Cached restores must move
// strictly fewer remote MB and have the fleet back in service strictly
// sooner than the uncached remote baseline — the acceptance bar for
// the delta cache (commit-time fills plus prefetch overlap must beat
// re-streaming every chain on every resume).
func BenchmarkStorageCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stOnce.Do(func() { stRes = evalrun.StorageTable(benchSeed, 4) })
	}
	b.ReportMetric(stRes.Cached.RemoteMB, "MB-remote-cached")
	b.ReportMetric(stRes.Uncached.RemoteMB, "MB-remote-uncached")
	b.ReportMetric(stRes.Cached.MeanRestoreS, "s-restore-cached")
	b.ReportMetric(stRes.Uncached.MeanRestoreS, "s-restore-uncached")
	b.ReportMetric(stRes.Cached.HitRatio*100, "%cache-hits")
	if stRes.Cached.Restores != stRes.Cycles || stRes.Uncached.Restores != stRes.Cycles {
		b.Fatalf("fleet never finished its cycles: cached %d, uncached %d of %d",
			stRes.Cached.Restores, stRes.Uncached.Restores, stRes.Cycles)
	}
	if stRes.Cached.RemoteMB >= stRes.Uncached.RemoteMB {
		b.Fatalf("cached restores moved %.0f remote MB, uncached %.0f — no byte savings",
			stRes.Cached.RemoteMB, stRes.Uncached.RemoteMB)
	}
	if stRes.Cached.MeanRestoreS >= stRes.Uncached.MeanRestoreS {
		b.Fatalf("cached restores took %.1f s, uncached %.1f s — no latency win",
			stRes.Cached.MeanRestoreS, stRes.Uncached.MeanRestoreS)
	}
}

// BenchmarkScale runs the single-facility fleet at 1k and 10k tenants
// and asserts the scheduler hot path scales sub-linearly: growing the
// fleet 10x (over a pool that stops growing at 256 nodes) must grow the
// mean wall-clock cost per scheduler decision by well under 10x — the
// indexed queue/victim structures' acceptance bar. Decision cost is
// wall-clock, so the bound is deliberately loose (8x against a ~1-3x
// measured ratio; the short 1k measurement swings run to run); a
// linear-scan regression shows up as ~40x and fails regardless of
// machine noise.
func BenchmarkScale(b *testing.B) {
	decisionUS := func(tenants int) float64 {
		fed := federation.New(federation.Config{
			Facilities: 1, Tenants: tenants, Seed: benchSeed,
			Workers: 1, Migration: true, WarmUp: true,
		})
		d := fed.Facilities[0].Sched
		d.Instrument = true
		if r := fed.Run(); r.Completed != r.Tenants {
			b.Fatalf("fleet did not drain: %d/%d tenants", r.Completed, r.Tenants)
		}
		return float64(d.DecisionNanos) / 1e3 / float64(d.Admissions+d.Preemptions)
	}
	var us1k, us10k float64
	for i := 0; i < b.N; i++ {
		us1k, us10k = decisionUS(1000), decisionUS(10000)
	}
	b.ReportMetric(us1k, "us/decision-1k")
	b.ReportMetric(us10k, "us/decision-10k")
	if us1k <= 0 || us10k >= 8*us1k {
		b.Fatalf("decision cost grew super-linearly: %.2f us at 1k -> %.2f us at 10k", us1k, us10k)
	}
}

// BenchmarkSuiteParallel runs the 24-scenario generated matrix serially
// and on 2/4/8 workers. The report must be byte-identical at every
// width (parallelism only moves the wall clock). The >=2x speedup bar
// at 4 workers is the parallel runner's acceptance criterion; it only
// holds where 4 cores exist, so it is gated on NumCPU (a 1-core box
// still checks identity and reports its speedup as a metric).
func BenchmarkSuiteParallel(b *testing.B) {
	const count = 24
	var serial []byte
	var serialDur, par4Dur time.Duration
	for i := 0; i < b.N; i++ {
		serial = nil
		for _, w := range []int{1, 2, 4, 8} {
			start := time.Now()
			rep := suite.RunMatrixParallel(benchSeed, count, w)
			dur := time.Since(start)
			out, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				b.Fatal(err)
			}
			switch w {
			case 1:
				serial, serialDur = out, dur
			case 4:
				par4Dur = dur
			}
			if !bytes.Equal(out, serial) {
				b.Fatalf("report at %d workers is not byte-identical to serial", w)
			}
		}
	}
	speedup := serialDur.Seconds() / par4Dur.Seconds()
	b.ReportMetric(count/serialDur.Seconds(), "scen/s-serial")
	b.ReportMetric(count/par4Dur.Seconds(), "scen/s-4workers")
	b.ReportMetric(speedup, "x-speedup-4workers")
	if runtime.NumCPU() >= 4 && speedup < 2 {
		b.Fatalf("parallel corpus run only %.2fx faster at 4 workers on %d CPUs (want >=2x)",
			speedup, runtime.NumCPU())
	}
}

// BenchmarkFederation runs the 10k-tenant fleet over 4 facilities,
// serial vs full-width. The digest must be byte-identical at both
// worker counts (the worker pool only moves the wall clock), the fleet
// must drain, migrations must flow, and warm-up must strictly cut the
// shared-pool restore traffic against a cold run. The >=2x speedup bar
// at 4 facility-workers holds only where 4 cores exist, so — like
// BenchmarkSuiteParallel — it is gated on NumCPU; a smaller box still
// checks identity and reports its speedup.
func BenchmarkFederation(b *testing.B) {
	cfg := federation.Config{
		Facilities: 4, Tenants: 10000, Seed: benchSeed,
		Workers: 1, Migration: true, WarmUp: true,
	}
	timed := func(cfg federation.Config) (*federation.Result, time.Duration) {
		start := time.Now()
		r := federation.Run(cfg)
		return r, time.Since(start)
	}
	var serial, par *federation.Result
	var serialDur, parDur time.Duration
	for i := 0; i < b.N; i++ {
		serial, serialDur = timed(cfg)
		par4 := cfg
		par4.Workers = 4
		par, parDur = timed(par4)
	}
	coldCfg := cfg
	coldCfg.WarmUp = false
	cold := federation.Run(coldCfg)

	speedup := serialDur.Seconds() / parDur.Seconds()
	b.ReportMetric(float64(serialDur.Milliseconds()), "wallms-serial")
	b.ReportMetric(float64(parDur.Milliseconds()), "wallms-4workers")
	b.ReportMetric(speedup, "x-speedup-4workers")
	if par.Digest != serial.Digest {
		b.Fatalf("digest at 4 workers diverged from serial: %s vs %s", par.Digest, serial.Digest)
	}
	if serial.Completed != serial.Tenants {
		b.Fatalf("sharded 10k fleet did not drain: %d/%d", serial.Completed, serial.Tenants)
	}
	if serial.Migrations == 0 {
		b.Fatal("sharded 10k fleet migrated nothing")
	}
	if serial.RemoteMB >= cold.RemoteMB {
		b.Fatalf("warm-up did not cut remote restore traffic: %.1f MB warm vs %.1f MB cold",
			serial.RemoteMB, cold.RemoteMB)
	}
	if runtime.NumCPU() >= 4 && speedup < 2 {
		b.Fatalf("federated run only %.2fx faster at 4 facility-workers on %d CPUs (want >=2x)",
			speedup, runtime.NumCPU())
	}
}

// BenchmarkCheckpointLatency measures the raw cost of one incremental
// distributed checkpoint on an idle 2-node experiment — an ablation for
// the downtime the firewall conceals.
func BenchmarkCheckpointLatency(b *testing.B) {
	s := emucheck.NewSession(emucheck.Scenario{Spec: demoSpecForBench()}, benchSeed)
	s.RunFor(sim.Second)
	if _, err := s.Checkpoint(); err != nil { // absorb the full save
		b.Fatal(err)
	}
	b.ResetTimer()
	var worst sim.Time
	for i := 0; i < b.N; i++ {
		s.RunFor(sim.Second)
		res, err := s.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		if d := res.MaxDowntime(); d > worst {
			worst = d
		}
	}
	b.ReportMetric(worst.Millis(), "ms-worst-downtime")
}
