package evalrun

import (
	"fmt"

	"emucheck/internal/apps"
	"emucheck/internal/core"
	"emucheck/internal/fsmodel"
	"emucheck/internal/guest"
	"emucheck/internal/metrics"
	"emucheck/internal/node"
	"emucheck/internal/notify"
	"emucheck/internal/ntpsim"
	"emucheck/internal/sim"
	"emucheck/internal/storage"
	"emucheck/internal/swap"
	"emucheck/internal/xen"
	"emucheck/internal/xfer"
)

// ---------------------------------------------------------------- Fig 8

// Fig8Result compares Bonnie++ throughput on Base / Branch-Orig /
// Branch storage for the five operation classes.
type Fig8Result struct {
	// MBps[config][op]
	MBps map[string]map[string]float64
	// FreshWriteOverheadPct is Branch-vs-Base block-write overhead on a
	// fresh disk.
	FreshWriteOverheadPct float64
	// AgedWriteOverheadPct is the same after aging.
	AgedWriteOverheadPct float64
	// OrigWriteSlowdownPct is how much slower Branch-Orig block writes
	// are than Branch's.
	OrigWriteSlowdownPct float64
}

// fig8Run measures each Bonnie operation class on its own fresh volume
// of the given mode (each bar in the figure is an independent run).
func fig8Run(seed int64, mode storage.Mode, aged bool) map[string]float64 {
	out := make(map[string]float64)
	for _, op := range apps.BonnieOps {
		s := sim.New(seed)
		p := node.DefaultParams()
		m := node.NewMachine(s, "disk0", p)
		k := guest.New(m, p, guest.DefaultConfig())
		v := storage.NewVolume(m.Disk, 6<<30, mode)
		if aged {
			v.Age()
		}
		k.Backend = v
		b := apps.NewBonnie(k)
		b.FileBytes = 512 << 20
		if op == apps.BlockRewrites || op == apps.BlockReads || op == apps.CharReads {
			// Reads and rewrites operate on previously written data:
			// pre-populate the file through the COW store, then age the
			// measurement to exclude population.
			done := false
			b.Run(apps.BlockWrites, func(float64) { done = true })
			s.RunFor(2 * sim.Hour)
			if !done {
				panic("fig8: populate incomplete")
			}
		}
		done := false
		b.Run(op, func(mbps float64) { out[op.String()] = mbps; done = true })
		s.RunFor(2 * sim.Hour)
		if !done {
			panic("fig8: " + op.String() + " incomplete")
		}
	}
	return out
}

// Fig8 runs the three configurations (Base, fresh Branch-Orig, fresh
// Branch) plus an aged Branch pass for the overhead comparison, each on
// a 512 MB Bonnie++ file.
func Fig8(seed int64) *Fig8Result {
	res := &Fig8Result{MBps: make(map[string]map[string]float64)}
	res.MBps["Base"] = fig8Run(seed, storage.Raw, false)
	res.MBps["Branch-Orig"] = fig8Run(seed, storage.OriginalLVM, false)
	res.MBps["Branch"] = fig8Run(seed, storage.Optimized, false)
	aged := fig8Run(seed, storage.Optimized, true)

	bw := "Block-Writes"
	base, branch, orig := res.MBps["Base"][bw], res.MBps["Branch"][bw], res.MBps["Branch-Orig"][bw]
	res.FreshWriteOverheadPct = (base - branch) / base * 100
	res.AgedWriteOverheadPct = (base - aged[bw]) / base * 100
	res.OrigWriteSlowdownPct = (branch - orig) / branch * 100
	return res
}

// Render prints the figure's bar groups plus the headline ratios.
func (r *Fig8Result) Render() string {
	t := &metrics.Table{Header: []string{"operation", "Base", "Branch-Orig", "Branch"}}
	for _, op := range apps.BonnieOps {
		name := op.String()
		t.AddRow(name, r.MBps["Base"][name], r.MBps["Branch-Orig"][name], r.MBps["Branch"][name])
	}
	s := t.String()
	s += fmt.Sprintf("\nfresh-disk block-write overhead: paper %s, measured %.0f%%\n", paper("Fig 8", "fresh-disk block-write overhead"), r.FreshWriteOverheadPct)
	s += fmt.Sprintf("aged-disk block-write overhead:  paper %s, measured %.0f%%\n", paper("Fig 8", "aged-disk block-write overhead"), r.AgedWriteOverheadPct)
	s += fmt.Sprintf("Branch-Orig write slowdown vs Branch: paper %s, measured %.0f%%\n", paper("Fig 8", "Branch-Orig write slowdown vs Branch"), r.OrigWriteSlowdownPct)
	return s
}

// ---------------------------------------------------------------- Fig 9

// Fig9Result is the background-transfer interference experiment.
type Fig9Result struct {
	// Throughput per scenario, 1 s windows (MB/s).
	NoSwap, EagerOut, LazyIn *metrics.Series `json:"-"`
	// Execution time per scenario.
	DurNone, DurEager, DurLazy sim.Time
	// Execution-time overheads against no swap, and the lazy run's
	// throughput drop while it faults.
	EagerOverheadPct, LazyOverheadPct, LazyThroughputDropPct float64
}

func fig9Run(seed int64, copyBytes int64, setup func(s *sim.Simulator, m *node.Machine, k *guest.Kernel)) (*metrics.Series, sim.Time) {
	s := sim.New(seed)
	p := node.DefaultParams()
	m := node.NewMachine(s, "fc0", p)
	k := guest.New(m, p, guest.DefaultConfig())
	if setup != nil {
		setup(s, m, k)
	}
	fc := apps.NewFileCopy(k, copyBytes)
	done := false
	fc.Run(func() { done = true })
	s.RunFor(2 * sim.Hour)
	if !done {
		panic("fig9: copy incomplete")
	}
	return fc.Throughput, fc.ExecutionDur
}

// Fig9 measures a 512 MB copy alone, under eager swap-out pre-copy,
// and under lazy swap-in background fill with demand faults.
func Fig9(seed int64) *Fig9Result {
	r := &Fig9Result{}
	const bytes int64 = 512 << 20

	r.NoSwap, r.DurNone = fig9Run(seed, bytes, nil)

	// Eager copy-out: a rate-limited background copy to the server
	// shares the spindle while the copy runs (swap triggered a fifth of
	// the way in, like the paper's 60 s point in a ~300 s run).
	r.EagerOut, r.DurEager = fig9Run(seed, bytes, func(s *sim.Simulator, m *node.Machine, k *guest.Kernel) {
		server := xfer.NewServer(s, 0)
		s.After(5*sim.Second, "fig9.swapout", func() {
			server.Copy("", m.Disk, node.Read, storage.CurBase, 300<<20, 6<<20, func() {})
		})
	})

	// Lazy copy-in: part of the source data (the aggregated delta) is
	// still remote; reads fault it over the control network while the
	// rate-limited background fill races the reader.
	remote := bytes / 6
	r.LazyIn, r.DurLazy = fig9Run(seed, bytes, func(s *sim.Simulator, m *node.Machine, k *guest.Kernel) {
		server := xfer.NewServer(s, 0)
		lm := xfer.NewLazyMirror(s, k.Backend, server, remote)
		lm.Base = 2 << 30 // the file-copy source region
		// The paper attributes the larger lazy impact to "more
		// aggressive prefetching" — a limitation of the rate limiter on
		// the copy-in path. Model it: the background fill runs
		// unthrottled, racing (and colliding with) the reader.
		lm.SetBackgroundRate(0)
		lm.StartBackground(nil)
		k.Backend = lm
	})

	r.EagerOverheadPct = pct(r.DurEager, r.DurNone)
	r.LazyOverheadPct = pct(r.DurLazy, r.DurNone)
	base := metrics.Mean(r.NoSwap.Values())
	// The throughput drop is measured over the faulting phase (while
	// the remote delta is still arriving), matching the visible dip in
	// the paper's plot rather than the whole-run mean.
	faultPhase := r.LazyIn.Between(0, r.DurLazy-r.DurNone+sim.Time(float64(remote)/22e6*float64(sim.Second)))
	lazy := metrics.Mean(faultPhase.Values())
	r.LazyThroughputDropPct = (base - lazy) / base * 100
	return r
}

func pct(a, b sim.Time) float64 { return (float64(a) - float64(b)) / float64(b) * 100 }

// Render prints the figure's summary rows.
func (r *Fig9Result) Render() string {
	t := &metrics.Table{Header: []string{"scenario", "exec time (s)", "mean MB/s"}}
	t.AddRow("no swap", r.DurNone.Seconds(), metrics.Mean(r.NoSwap.Values()))
	t.AddRow("swap-out, eager pre-copy", r.DurEager.Seconds(), metrics.Mean(r.EagerOut.Values()))
	t.AddRow("swap-in, lazy copy-in", r.DurLazy.Seconds(), metrics.Mean(r.LazyIn.Values()))
	s := t.String()
	s += fmt.Sprintf("\neager overhead: paper %s, measured %+.0f%%\n", paper("Fig 9", "eager overhead"), r.EagerOverheadPct)
	s += fmt.Sprintf("lazy overhead:  paper %s, measured %+.0f%%\n", paper("Fig 9", "lazy overhead"), r.LazyOverheadPct)
	s += fmt.Sprintf("lazy throughput drop: paper %s, measured %.0f%%\n", paper("Fig 9", "lazy throughput drop"), r.LazyThroughputDropPct)
	return s
}

// ------------------------------------------------------------ Swap table

// SwapCycleRow is one swap cycle's timing.
type SwapCycleRow struct {
	Cycle           int
	SwapOut         sim.Time
	SwapInLazy      sim.Time
	SwapInEager     sim.Time
	AggregatedDelta int64
}

// SwapTableResult is the §7.2 stateful-swapping evaluation.
type SwapTableResult struct {
	InitialSwapIn sim.Time
	Rows          []SwapCycleRow
	// DiskLoadedOutPct is the swap-out slowdown under a disk-intensive
	// workload.
	DiskLoadedOutPct float64
}

type swapRig struct {
	s   *sim.Simulator
	k   *guest.Kernel
	vol *storage.Volume
	mgr *swap.Manager
	off int64
}

func newSwapRig(seed int64) *swapRig {
	s := sim.New(seed)
	p := node.DefaultParams()
	m := node.NewMachine(s, "sw0", p)
	k := guest.New(m, p, guest.DefaultConfig())
	vol := storage.NewVolume(m.Disk, 6<<30, storage.Optimized)
	vol.Age()
	k.Backend = vol
	hv := xen.New(m, p, k)
	bus := notify.NewBus(s)
	y := ntpsim.New(s, seed)
	y.Start("sw0")
	coord := core.NewCoordinator(s, bus, y, []*core.Member{{Name: "sw0", HV: hv}}, nil)
	server := xfer.NewServer(s, 0)
	mgr := swap.NewManager(s, server, coord,
		[]*swap.Node{{Name: "sw0", HV: hv, Vol: vol, GoldenCached: true}})
	return &swapRig{s: s, k: k, vol: vol, mgr: mgr}
}

// session writes the paper's 275 MB of new data.
func (r *swapRig) session(busy bool) {
	base := r.off + 1<<30
	r.off += 275 << 20
	for w := int64(0); w < 275<<20; w += 4 << 20 {
		r.vol.Write(base+w, 4<<20, nil)
	}
	r.s.RunFor(2*sim.Minute - 5*sim.Second)
	if busy {
		// Disk-intensive workload running into the swap-out: ~2.5 MB/s
		// of fresh writes. Blocks written during pre-copy are re-sent
		// while frozen, and the rate limiter slows the pre-copy — the
		// two factors behind the paper's disk-loaded slowdown.
		var churn func(off int64)
		churn = func(off int64) {
			r.k.WriteDisk((5<<30)+off%(1<<30), 1<<20, func() {
				r.k.Usleep(400*sim.Millisecond, func() { churn(off + 1<<20) })
			})
		}
		churn(0)
	}
	r.s.RunFor(5 * sim.Second)
}

func (r *swapRig) swapOut(o swap.Options) sim.Time {
	var reps []*swap.OutReport
	if err := r.mgr.SwapOut(o, func(x []*swap.OutReport, _ error) { reps = x }); err != nil {
		panic(err)
	}
	r.s.RunFor(30 * sim.Minute)
	if reps == nil {
		panic("swap-out incomplete")
	}
	return reps[0].Duration()
}

func (r *swapRig) swapIn(o swap.Options) (sim.Time, int64) {
	var reps []*swap.InReport
	if err := r.mgr.SwapIn(o, func(x []*swap.InReport, _ error) { reps = x }); err != nil {
		panic(err)
	}
	r.s.RunFor(60 * sim.Minute)
	if reps == nil {
		panic("swap-in incomplete")
	}
	return reps[0].Duration(), reps[0].DeltaBytes
}

// SwapTable runs four consecutive swap cycles in lazy and eager
// configurations plus the disk-loaded swap-out comparison.
func SwapTable(seed int64) *SwapTableResult {
	res := &SwapTableResult{InitialSwapIn: swap.NodeSetupTime}

	run := func(lazy bool) []SwapCycleRow {
		r := newSwapRig(seed)
		o := swap.Options{Eager: !lazy}
		var rows []SwapCycleRow
		for c := 1; c <= 4; c++ {
			r.session(false)
			out := r.swapOut(o)
			in, delta := r.swapIn(o)
			rows = append(rows, SwapCycleRow{Cycle: c, SwapOut: out, SwapInLazy: in, AggregatedDelta: delta})
		}
		return rows
	}
	lazyRows := run(true)
	eagerRows := run(false)
	for i := range lazyRows {
		lazyRows[i].SwapInEager = eagerRows[i].SwapInLazy
	}
	res.Rows = lazyRows

	// Disk-intensive swap-out slowdown.
	quiet := newSwapRig(seed + 1)
	quiet.session(false)
	quietOut := quiet.swapOut(swap.Options{})
	busy := newSwapRig(seed + 2)
	busy.session(true)
	busyOut := busy.swapOut(swap.Options{})
	res.DiskLoadedOutPct = pct(busyOut, quietOut)
	return res
}

// Render prints the section's table.
func (r *SwapTableResult) Render() string {
	t := &metrics.Table{Header: []string{"cycle", "swap-out (s)", "swap-in lazy (s)", "swap-in eager (s)", "agg delta (MB)"}}
	for _, row := range r.Rows {
		t.AddRow(row.Cycle, row.SwapOut.Seconds(), row.SwapInLazy.Seconds(), row.SwapInEager.Seconds(), row.AggregatedDelta>>20)
	}
	s := t.String()
	s += fmt.Sprintf("\ninitial swap-in (cached golden): paper %s, modeled %.0fs\n", paper("§7.2", "initial swap-in (cached golden)"), r.InitialSwapIn.Seconds())
	s += fmt.Sprintf("paper: swap-out %s; lazy swap-in %s; eager %s\n",
		paper("§7.2", "swap-out"), paper("§7.2", "lazy swap-in"), paper("§7.2", "eager swap-in"))
	s += fmt.Sprintf("disk-loaded swap-out slowdown: paper %s, measured %+.0f%%\n", paper("§7.2", "disk-loaded swap-out slowdown"), r.DiskLoadedOutPct)
	return s
}

// ------------------------------------------------------- Free-block table

// FreeBlockResult is the §5.1 make/make-clean delta experiment.
type FreeBlockResult struct {
	RawMB  int64
	LiveMB int64
}

// FreeBlockTable builds a kernel-source-sized write/delete churn and
// measures the delta with and without free-block elimination.
func FreeBlockTable(seed int64) *FreeBlockResult {
	s := sim.New(seed)
	p := node.DefaultParams()
	m := node.NewMachine(s, "fb0", p)
	v := storage.NewVolume(m.Disk, 6<<30, storage.Optimized)
	v.Age()
	fsSize := int64(2 << 30)
	plugin := fsmodel.NewPlugin(fsSize / fsmodel.FSBlockSize)
	fs := fsmodel.New(v, fsSize, plugin)
	// "make": write 490 1 MB object files; then "make clean".
	for i := 0; i < 490; i++ {
		name := fmt.Sprintf("obj%04d.o", i)
		if err := fs.Create(name, 1<<20, nil); err != nil {
			panic(err)
		}
		s.RunFor(5 * sim.Second)
	}
	for i := 0; i < 490; i++ {
		if err := fs.Delete(fmt.Sprintf("obj%04d.o", i), nil); err != nil {
			panic(err)
		}
	}
	s.RunFor(5 * sim.Minute)
	return &FreeBlockResult{
		RawMB:  v.CurrentDeltaBytes(nil) >> 20,
		LiveMB: v.CurrentDeltaBytes(plugin.IsCOWBlockFree) >> 20,
	}
}

// Render prints the comparison.
func (r *FreeBlockResult) Render() string {
	return claimTable(r, "§5.1", "delta", "paper (MB)", "measured (MB)")
}

// ----------------------------------------------------------- Sync table

// SyncResult is the §4.3 synchronization evaluation.
type SyncResult struct {
	// SkewAt are two-node trigger skews at 5 s checkpoint instants.
	SkewAt []sim.Time
	// ScheduledSkew and EventSkew compare the two trigger modes on a
	// converged system: each is the mean suspend skew of syncCheckpoints
	// checkpoints taken 5 s apart.
	ScheduledSkew, EventSkew sim.Time
}

// syncCheckpoints is how many checkpoints each trigger mode averages
// over. One checkpoint per mode compares two single draws of clock
// error and notification jitter, and the event-driven draw beats the
// scheduled one at some seeds.
const syncCheckpoints = 10

// SyncTable measures NTP convergence and the scheduled-vs-event-driven
// checkpoint skew comparison.
func SyncTable(seed int64) *SyncResult {
	s := sim.New(seed)
	y := ntpsim.New(s, seed)
	y.Start("a")
	y.Start("b")
	res := &SyncResult{}
	for _, at := range []sim.Time{5 * sim.Second, 10 * sim.Second, 15 * sim.Second, 20 * sim.Second} {
		res.SkewAt = append(res.SkewAt, y.Skew(at, "a", "b"))
	}

	mode := func(m core.Mode) sim.Time {
		_, e := twoNode(seed, 0, 0)
		st := e.TB.S
		st.RunFor(60 * sim.Second)
		var sum sim.Time
		for i := 0; i < syncCheckpoints; i++ {
			var r *core.Result
			e.Coord.Checkpoint(core.Options{Mode: m, Incremental: true}, func(x *core.Result, _ error) { r = x })
			st.RunFor(CkptInterval)
			if r == nil {
				panic("sync: checkpoint incomplete")
			}
			sum += r.SuspendSkew
		}
		return sum / syncCheckpoints
	}
	res.ScheduledSkew = mode(core.Scheduled)
	res.EventSkew = mode(core.EventDriven)
	return res
}

// Render prints the section's numbers.
func (r *SyncResult) Render() string { return claimTable(r, "§4.3", "metric", "paper", "measured") }

// ------------------------------------------------------ Dom0 jobs table

// Dom0JobsResult is §7.1's dom0-interference calibration: the effect of
// trivial privileged-domain commands on the CPU benchmark.
type Dom0JobsResult struct {
	// ExtraMs[job] is the added iteration time.
	ExtraMs map[string]float64
}

// Dom0Jobs measures ls / sum / xm-list style dom0 work against the
// CPU-bound loop.
func Dom0Jobs(seed int64) *Dom0JobsResult {
	jobs := []struct {
		name  string
		dur   sim.Time
		share float64
	}{
		{"ls /", 9 * sim.Millisecond, 0.7},
		{"sum vmlinux", 21 * sim.Millisecond, 0.7},
		{"xm list", 150 * sim.Millisecond, 0.9},
	}
	res := &Dom0JobsResult{ExtraMs: make(map[string]float64)}
	for _, j := range jobs {
		s := sim.New(seed)
		p := node.DefaultParams()
		m := node.NewMachine(s, "d0", p)
		k := guest.New(m, p, guest.DefaultConfig())
		hv := xen.New(m, p, k)
		var iters []float64
		var step func()
		n := 0
		step = func() {
			start := k.Gettimeofday()
			k.Compute(236600*sim.Microsecond, "job", func() {
				iters = append(iters, float64(k.Gettimeofday()-start))
				n++
				if n < 20 {
					step()
				}
			})
		}
		step()
		// Inject the dom0 job mid-run.
		s.After(sim.Second, "dom0job", func() { hv.Dom0Job(j.dur, j.share) })
		s.RunFor(20 * sim.Second)
		nominal := 236.6 * float64(sim.Millisecond)
		worst := 0.0
		for _, v := range iters {
			if over := (v - nominal) / float64(sim.Millisecond); over > worst {
				worst = over
			}
		}
		res.ExtraMs[j.name] = worst
	}
	return res
}

// Render prints the comparison.
func (r *Dom0JobsResult) Render() string {
	return claimTable(r, "§7.1", "dom0 command", "paper (ms)", "measured (ms)")
}
