package scenario

import (
	"fmt"
	"strings"

	"emucheck"
	"emucheck/internal/apps"
	"emucheck/internal/core"
	"emucheck/internal/fault"
	"emucheck/internal/federation"
	"emucheck/internal/guest"
	"emucheck/internal/health"
	"emucheck/internal/metrics"
	"emucheck/internal/notify"
	"emucheck/internal/remediate"
	"emucheck/internal/sched"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

// ExpStats accumulates one experiment's observable progress.
type ExpStats struct {
	Ticks       int64 `json:"ticks"`
	Checkpoints int   `json:"checkpoints"`
	// Outcome is the workload's terminal verdict (racyelect: the leader
	// elected, or "split-brain").
	Outcome string             `json:"outcome,omitempty"`
	commit  apps.CommitOutcome // a 2PC tally, formatted once, by outcome
}

// outcome reports the terminal verdict.
func (st *ExpStats) outcome() string {
	if st.commit != (apps.CommitOutcome{}) {
		return st.commit.String()
	}
	return st.Outcome
}

// Check is one evaluated assertion.
type Check struct {
	Desc   string `json:"desc"`
	Ok     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// ExpRow is one experiment's end-of-run summary.
type ExpRow struct {
	Name        string  `json:"name"`
	State       string  `json:"state"`
	Ticks       int64   `json:"ticks"`
	Checkpoints int     `json:"checkpoints"`
	Admissions  int     `json:"admissions"`
	Preemptions int     `json:"preemptions"`
	QueueWaitS  float64 `json:"queue_wait_s"`
	// SwapMB is the experiment's total file-server traffic (both
	// directions) across its swap cycles, in MB.
	SwapMB float64 `json:"swap_mb"`
	// Outcome is the workload's terminal verdict, if it has one.
	Outcome string `json:"outcome,omitempty"`
	// EpochsAborted counts checkpoint epochs that aborted (save
	// failures, stragglers, crash-forced aborts) on the experiment's
	// current coordinator.
	EpochsAborted int `json:"epochs_aborted,omitempty"`
	// Recoveries counts restorations from a committed epoch after a
	// crash; LostWorkMs is the work those recoveries discarded.
	Recoveries int     `json:"recoveries,omitempty"`
	LostWorkMs float64 `json:"lost_work_ms,omitempty"`
	// Health-loop accounting (health stanza only): unhealthy verdicts
	// against this experiment, worst detection latency and
	// crash-to-back-in-service time, unattended remediations initiated,
	// and whether the budget escalated to quarantine.
	Detections   int     `json:"detections,omitempty"`
	DetectMs     float64 `json:"detect_ms,omitempty"`
	MTTRMs       float64 `json:"mttr_ms,omitempty"`
	Remediations int     `json:"remediations,omitempty"`
	Quarantined  bool    `json:"quarantined,omitempty"`
	// LastError surfaces the experiment's most recent control-plane
	// failure (aborted epoch, failed park, ...).
	LastError string `json:"last_error,omitempty"`
}

// BusStats is the control LAN's delivery ledger for the run — how many
// notifications were published, delivered, and lost to injected
// faults, per topic.
type BusStats struct {
	Published uint64                       `json:"published"`
	Delivered uint64                       `json:"delivered"`
	Dropped   uint64                       `json:"dropped"`
	Topics    map[string]notify.TopicStats `json:"topics,omitempty"`
}

// BranchRow is one explored branch's end-of-run summary.
type BranchRow struct {
	Name    string `json:"name"`
	Seed    int64  `json:"seed"`
	State   string `json:"state"`
	Outcome string `json:"outcome,omitempty"`
	Ticks   int64  `json:"ticks"`
}

// SearchResult summarizes a branch fan-out exploration.
type SearchResult struct {
	Parent string `json:"parent"`
	FanOut int    `json:"fan_out"`
	// Naive marks the per-branch full-copy baseline.
	Naive    bool        `json:"naive,omitempty"`
	Branches []BranchRow `json:"branches"`
	// DistinctOutcomes counts the different terminal verdicts the
	// branches reached — the breadth the search bought.
	DistinctOutcomes int `json:"distinct_outcomes"`
	// StoredMB is the chain store's unique server-side footprint;
	// SharedMB the replay bytes branches hold by shared reference.
	StoredMB float64 `json:"stored_mb"`
	SharedMB float64 `json:"shared_mb"`
	// MulticastSavedMB is what unicasting the staged prefix to every
	// branch would have added to the control LAN.
	MulticastSavedMB float64 `json:"multicast_saved_mb"`
	GangAdmissions   int     `json:"gang_admissions"`
}

// StorageReport is the chain-storage tier's end-of-run accounting
// (present when the scenario declared a storage stanza).
type StorageReport struct {
	// Backend names the tier the run used.
	Backend string `json:"backend"`
	// CacheMB is the configured delta-cache size (0 = no cache).
	CacheMB int64 `json:"cache_mb,omitempty"`
	// Cache hit/miss/evict counters, from the delta cache's ledger.
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheHitMB     float64 `json:"cache_hit_mb"`
	CacheEvictions int64   `json:"cache_evictions"`
	CacheEvictedMB float64 `json:"cache_evicted_mb"`
	// HitRatio is hits / lookups (0 when the cache was never consulted).
	HitRatio float64 `json:"cache_hit_ratio"`
	// LocalMB is chain state served or stored on node-local media;
	// RemoteMB crossed the control LAN to or from the shared pool;
	// SpillMB is snapshot-disk overflow pushed to the pool.
	LocalMB  float64 `json:"local_mb"`
	RemoteMB float64 `json:"remote_mb"`
	SpillMB  float64 `json:"spill_mb,omitempty"`
}

// HealthReport is the autonomous health loop's run-wide ledger
// (present when the scenario declared a health stanza).
type HealthReport struct {
	// Policy is the detection preset the run used.
	Policy string `json:"policy"`
	// Probes and Fails count delivered probe outcomes (skips excluded);
	// Detections counts unhealthy flips across all targets.
	Probes     int `json:"probes"`
	Fails      int `json:"fails"`
	Detections int `json:"detections"`
	// Remediations counts recoveries the controller initiated; Retries
	// counts backed-off re-attempts; Quarantines counts budget
	// exhaustions.
	Remediations int `json:"remediations"`
	Retries      int `json:"retries,omitempty"`
	Quarantines  int `json:"quarantines,omitempty"`
	// The cordon ledger and drain tally; OpenCordons must be zero at
	// quiescence (the suite's no-orphaned-cordon invariant).
	CordonsIssued   int `json:"cordons_issued"`
	CordonsReleased int `json:"cordons_released"`
	OpenCordons     int `json:"open_cordons"`
	DrainedVictims  int `json:"drained_victims,omitempty"`
	// Errors records remediation hook failures.
	Errors []string `json:"errors,omitempty"`
}

// Result is a completed scenario run.
type Result struct {
	Name        string  `json:"name"`
	Pass        bool    `json:"pass"`
	Ran         string  `json:"ran"` // simulated time covered
	Utilization float64 `json:"utilization"`
	Preemptions int     `json:"preemptions"`
	Admissions  int     `json:"admissions"`
	// SwapMode is the transfer mode the run used (full or incremental).
	SwapMode string `json:"swap_mode"`
	// PreemptedMB is the scheduler's estimated transfer bill for its
	// involuntary parks, in MB (proportional to dirtied state under
	// incremental swapping).
	PreemptedMB float64  `json:"preempted_mb"`
	Experiments []ExpRow `json:"experiments"`
	// Search is the fan-out exploration summary (search scenarios only).
	Search *SearchResult `json:"search,omitempty"`
	// Storage is the chain-storage tier's accounting (storage stanza
	// only).
	Storage *StorageReport `json:"storage,omitempty"`
	// Federation is the federated-fleet run's accounting (federation
	// stanza only). Every field — including the digest — is a pure
	// function of (file, seed), so replay digests stay byte-identical
	// whatever the worker count.
	Federation *federation.Result `json:"federation,omitempty"`
	// Health is the autonomous health loop's ledger (health stanza
	// only).
	Health *HealthReport `json:"health,omitempty"`
	// Bus reports control-LAN delivery stats (always present when the
	// scenario injected faults, so lost notifications are observable).
	Bus *BusStats `json:"bus,omitempty"`
	// Faults summarizes the injection plan's effect.
	Faults      *FaultSummary `json:"faults,omitempty"`
	Checks      []Check       `json:"checks,omitempty"`
	EventErrors []string      `json:"event_errors,omitempty"`
}

// FaultSummary reports what the injection plan actually did.
type FaultSummary struct {
	Planned int      `json:"planned"`
	Crashes int      `json:"crashes"`
	Dropped int      `json:"dropped"`
	Delayed int      `json:"delayed"`
	Slowed  int      `json:"slowed"`
	Errors  []string `json:"errors,omitempty"`
}

// Run validates and replays the scenario, returning the evaluated
// result. Validation failures abort before anything runs.
func Run(f *File) (*Result, error) {
	res, _, err := RunWithCluster(f)
	return res, err
}

// RunWithCluster is Run, but also hands back the finished cluster so
// callers (the suite runner's shared invariants) can audit hardware
// ledgers, chain-store refcounts, and bus accounting after the run.
func RunWithCluster(f *File) (*Result, *emucheck.Cluster, error) {
	if errs := Validate(f); len(errs) > 0 {
		lines := make([]string, len(errs))
		for i, e := range errs {
			lines[i] = e.Error()
		}
		return nil, nil, fmt.Errorf("scenario %q invalid:\n  %s", f.Name, strings.Join(lines, "\n  "))
	}
	if f.Federation != nil {
		res := runFederationScenario(f)
		return res, nil, nil
	}
	pol, _ := sched.ParsePolicy(f.Policy)
	c := emucheck.NewCluster(f.Pool, f.Seed, pol)
	c.Incremental = f.Swap == "incremental"
	if st := f.Storage; st != nil {
		if err := c.ConfigureStorage(emucheck.StorageOptions{
			Backend: st.Backend, CacheMB: st.CacheMB, DiskMB: st.DiskMB,
		}); err != nil {
			return nil, nil, fmt.Errorf("scenario %q: %v", f.Name, err)
		}
	}
	// Straggler detection: explicit save_deadline wins; otherwise any
	// fault-injected run gets a default so a crashed or deafened member
	// aborts its epoch instead of hanging it.
	if sd, _ := parseDur(f.SaveDeadline); sd > 0 {
		c.SaveDeadline = sd
	} else if len(f.Faults) > 0 {
		c.SaveDeadline = 30 * sim.Second
	}
	// Arm the health loop before the first submission so every tenant is
	// watched from admission; the probe-phase stagger is then a pure
	// function of (file, seed) and replays are byte-identical.
	if h := f.Health; h != nil {
		pol, _ := health.ParsePolicy(h.Policy)
		if h.ProbeMs > 0 {
			pol.ProbePeriod = sim.Time(h.ProbeMs * float64(sim.Millisecond))
		}
		if h.Threshold > 0 {
			pol.FailThreshold = h.Threshold
		}
		if h.Hysteresis > 0 {
			pol.RecoverThreshold = h.Hysteresis
		}
		opt := remediate.Options{Budget: h.Budget, FallbackRestart: h.FallbackRestart}
		if h.BackoffMs > 0 {
			opt.BackoffBase = sim.Time(h.BackoffMs * float64(sim.Millisecond))
		}
		if err := c.EnableHealth(emucheck.HealthOptions{Policy: pol, Remediate: opt}); err != nil {
			return nil, nil, fmt.Errorf("scenario %q: %v", f.Name, err)
		}
	}

	stats := make([]*ExpStats, len(f.Experiments))
	mode := f.Swap
	if mode == "" {
		mode = "full"
	}
	res := &Result{Name: f.Name, SwapMode: mode}
	evErr := func(format string, args ...any) {
		res.EventErrors = append(res.EventErrors, fmt.Sprintf(format, args...))
	}

	// Submit each experiment at its scheduled arrival.
	for i := range f.Experiments {
		e := &f.Experiments[i]
		st := &ExpStats{}
		stats[i] = st
		setup := workloadSetup(c, e, st)
		if e.Epochs != "" {
			// The committed-epoch pipeline restarts with every (re-)
			// instantiation, keeping the recovery restore point fresh.
			period, _ := parseDur(e.Epochs)
			inner := setup
			setup = func(s *emucheck.Session) {
				if inner != nil {
					inner(s)
				}
				if err := s.StartEpochs(period); err != nil {
					evErr("epochs %s: %v", s.Scenario.Spec.Name, err)
				}
			}
		}
		submit := func() {
			sc := emucheck.Scenario{Spec: e.Spec(), Setup: setup}
			if _, err := c.Submit(sc, e.Priority); err != nil {
				evErr("submit %s: %v", e.Name, err)
			}
		}
		at, _ := parseDur(e.SubmitAt)
		if at == 0 {
			submit()
		} else {
			c.S.DoAt(at, "scenario.submit."+e.Name, submit)
		}
	}

	// Schedule events.
	for i := range f.Events {
		ev := f.Events[i]
		at, _ := parseDur(ev.At)
		idx := expIndex(f, ev.Target)
		c.S.DoAt(at, "scenario."+ev.Action, func() {
			if err := applyEvent(c, ev, stats[idx]); err != nil {
				evErr("t=%v %s %s: %v", c.Now(), ev.Action, ev.Target, err)
			}
		})
	}

	// Arm the fault plan: crashes, control-LAN loss/delay, slow disks
	// and slow saves, all deterministic under the plan seed.
	var plan *fault.Plan
	if len(f.Faults) > 0 {
		plan = &fault.Plan{Seed: f.Seed}
		for _, ft := range f.Faults {
			at, _ := parseDur(ft.At)
			window, _ := parseDur(ft.For)
			kind := fault.Kind(ft.Kind)
			during := false
			if ft.Kind == "crash_during_save" {
				kind, during = fault.Crash, true
			}
			plan.Injections = append(plan.Injections, fault.Injection{
				Kind: kind, At: at, Target: ft.Target, Node: ft.Node,
				DuringSave: during, Topic: ft.Topic, Count: ft.Count,
				Extra:  sim.Time(ft.ExtraMs * float64(sim.Millisecond)),
				Factor: ft.Factor, Window: window, Seed: ft.Seed,
			})
		}
		c.InjectFaults(plan)
	}

	// Schedule the search fan-out: checkpoint the parent at the branch
	// point, then fork the batch.
	var branchStats []*ExpStats
	var branchSeeds []int64
	var branchSessions []*emucheck.Session
	if s := f.Search; s != nil {
		c.NaiveBranchCopy = s.Naive
		sIdx := expIndex(f, s.Parent)
		parentExp := &f.Experiments[sIdx]
		ckAt, _ := parseDur(s.CheckpointAt)
		brAt, _ := parseDur(s.BranchAt)
		c.S.DoAt(ckAt, "scenario.search-ckpt", func() {
			sess := c.Tenant(s.Parent)
			if sess == nil {
				evErr("t=%v search checkpoint: %s not submitted", c.Now(), s.Parent)
				return
			}
			err := sess.CheckpointAsync(core.Options{Incremental: true}, func(_ *core.Result, cerr error) {
				if cerr == nil {
					stats[sIdx].Checkpoints++
				}
			})
			if err != nil {
				evErr("t=%v search checkpoint: %v", c.Now(), err)
			}
		})
		c.S.DoAt(brAt, "scenario.search-branch", func() {
			sess := c.Tenant(s.Parent)
			if sess == nil || sess.Tree.Len() <= 1 {
				evErr("t=%v search branch: no branch-point checkpoint on %s", c.Now(), s.Parent)
				return
			}
			specs := make([]emucheck.BranchSpec, s.FanOut)
			for i := range specs {
				seed := int64(100 + i)
				if len(s.Seeds) > 0 {
					seed = s.Seeds[i]
				}
				st := &ExpStats{}
				branchStats = append(branchStats, st)
				branchSeeds = append(branchSeeds, seed)
				specs[i] = emucheck.BranchSpec{
					Perturb: emucheck.Perturbation{Kind: emucheck.SeedChange, Seed: seed},
					Setup:   workloadSetup(c, parentExp, st),
				}
			}
			bs, err := c.Branch(s.Parent, sess.Tree.Head(), specs...)
			if err != nil {
				evErr("t=%v search branch: %v", c.Now(), err)
				return
			}
			branchSessions = bs
		})
	}

	dur, _ := parseDur(f.RunFor)
	c.RunFor(dur)
	res.Ran = dur.String()

	// Collect stats and evaluate assertions.
	res.Utilization = c.Utilization()
	res.Preemptions = c.Sched.Preemptions
	res.Admissions = c.Sched.Admissions
	res.PreemptedMB = float64(c.Sched.PreemptedBytes) / (1 << 20)
	for i := range f.Experiments {
		e := &f.Experiments[i]
		row := ExpRow{Name: e.Name, State: "unsubmitted", Ticks: stats[i].Ticks,
			Checkpoints: stats[i].Checkpoints, Outcome: stats[i].outcome()}
		if t := c.Tenant(e.Name); t != nil {
			row.State = t.State()
			row.Admissions = t.Admissions()
			row.Preemptions = t.Preemptions()
			row.QueueWaitS = t.QueueWait().Seconds()
			row.SwapMB = float64(c.TB.Server.ByTag[e.Name]) / (1 << 20)
			row.EpochsAborted = t.EpochsAborted()
			row.Recoveries = t.Recoveries()
			row.LostWorkMs = t.LostWork().Millis()
			if f.Health != nil {
				row.Detections = t.Detections()
				row.DetectMs = t.MaxDetectLatency().Millis()
				row.MTTRMs = t.MaxMTTR().Millis()
				row.Remediations = t.Remediations()
				row.Quarantined = t.Quarantined()
			}
			if t.LastErr != nil {
				row.LastError = t.LastErr.Error()
			}
		}
		res.Experiments = append(res.Experiments, row)
	}
	if h := f.Health; h != nil {
		mon, rc := c.Health(), c.Remediator()
		pname := h.Policy
		if pname == "" {
			pname = "balanced"
		}
		res.Health = &HealthReport{
			Policy: pname,
			Probes: mon.Probes, Fails: mon.Fails, Detections: mon.Detections,
			Remediations: rc.Remediations, Retries: rc.Retries, Quarantines: rc.Quarantines,
			CordonsIssued: rc.CordonsIssued, CordonsReleased: rc.CordonsReleased,
			OpenCordons: c.Sched.CordonedNodes(), DrainedVictims: rc.DrainedVictims,
			Errors: rc.Errors,
		}
	}
	if plan != nil {
		res.Faults = &FaultSummary{
			Planned: len(plan.Injections), Crashes: plan.Crashes,
			Dropped: plan.Dropped, Delayed: plan.Delayed, Slowed: plan.Slowed,
			Errors: plan.Errors,
		}
		res.Bus = &BusStats{
			Published: c.TB.Bus.Published,
			Delivered: c.TB.Bus.Delivered,
			Dropped:   c.TB.Bus.Dropped,
			Topics:    c.TB.Bus.Topics(),
		}
	}
	if s := f.Search; s != nil {
		sr := &SearchResult{Parent: s.Parent, FanOut: s.FanOut, Naive: s.Naive}
		outcomes := make(map[string]bool)
		var shared int64
		for i, b := range branchSessions {
			row := BranchRow{
				Name: b.Scenario.Spec.Name, Seed: branchSeeds[i],
				State: b.State(), Outcome: branchStats[i].outcome(), Ticks: branchStats[i].Ticks,
			}
			if row.Outcome != "" {
				outcomes[row.Outcome] = true
			}
			if b.Exp != nil && b.Exp.Swap != nil {
				for _, lin := range b.Exp.Swap.Lineages() {
					shared += lin.SharedBytes()
				}
			}
			sr.Branches = append(sr.Branches, row)
		}
		sr.DistinctOutcomes = len(outcomes)
		sr.StoredMB = float64(c.Chains.StoredBytes()) / (1 << 20)
		sr.SharedMB = float64(shared) / (1 << 20)
		sr.MulticastSavedMB = float64(c.TB.Server.MulticastSavedBytes) / (1 << 20)
		sr.GangAdmissions = c.Sched.GangAdmissions
		res.Search = sr
	}
	if st := f.Storage; st != nil {
		rep := &StorageReport{Backend: st.Backend, CacheMB: st.CacheMB}
		if rep.Backend == "" {
			rep.Backend = "mem"
		}
		if cache := c.DeltaCache(); cache != nil {
			cs := cache.Stats()
			rep.CacheHits = cs.Hits
			rep.CacheMisses = cs.Misses
			rep.CacheHitMB = float64(cs.HitBytes) / (1 << 20)
			rep.CacheEvictions = cs.Evictions
			rep.CacheEvictedMB = float64(cs.EvictedBytes) / (1 << 20)
			rep.HitRatio = cache.HitRatio()
		}
		rep.LocalMB = float64(c.SwapStats.Get("storage.local_bytes")) / (1 << 20)
		rep.RemoteMB = float64(c.SwapStats.Get("storage.remote_bytes")) / (1 << 20)
		rep.SpillMB = float64(c.SwapStats.Get("storage.spill_bytes")) / (1 << 20)
		res.Storage = rep
	}
	for _, a := range f.Assertions {
		res.Checks = append(res.Checks, evalAssertion(c, f, stats, res, a))
	}
	res.Pass = len(res.EventErrors) == 0
	for _, ch := range res.Checks {
		if !ch.Ok {
			res.Pass = false
		}
	}
	return res, c, nil
}

// runFederationScenario replays a federation scenario: the synthetic
// fleet is built from the stanza and the file seed, run to the run_for
// horizon (or until it drains) under conservative windows, and the
// federation assertions are evaluated against the aggregate result.
// There is no cluster to hand back — the facilities are the runner's
// own worlds — so suite invariants audit the Result instead.
func runFederationScenario(f *File) *Result {
	fd := f.Federation
	horizon, _ := parseDur(f.RunFor)
	lookahead, _ := parseDur(fd.Lookahead)
	wanLatency, _ := parseDur(fd.WANLatency)
	fr := federation.Run(federation.Config{
		Facilities: fd.Facilities,
		Tenants:    fd.Tenants,
		Seed:       f.Seed,
		Workers:    fd.Workers,
		Lookahead:  lookahead,
		WANLatency: wanLatency,
		WANRate:    int64(fd.WANMbps * 1e6 / 8),
		CacheBytes: fd.CacheMB << 20,
		Migration:  fd.Migration,
		WarmUp:     fd.WarmUp,
		Horizon:    horizon,
	})
	res := &Result{Name: f.Name, Ran: horizon.String(), SwapMode: "incremental", Federation: fr}
	for _, a := range f.Assertions {
		res.Checks = append(res.Checks, evalFederationAssertion(fr, a))
	}
	res.Pass = true
	for _, ch := range res.Checks {
		if !ch.Ok {
			res.Pass = false
		}
	}
	return res
}

// evalFederationAssertion checks one federation assertion.
func evalFederationAssertion(fr *federation.Result, a Assertion) Check {
	switch a.Type {
	case "all_completed":
		return mkCheck("all tenants completed", fr.Completed == fr.Tenants,
			fmt.Sprintf("%d of %d", fr.Completed, fr.Tenants))
	case "min_migrations":
		return mkCheck(fmt.Sprintf("migrations >= %d", a.Value), int64(fr.Migrations) >= a.Value,
			fmt.Sprintf("got %d", fr.Migrations))
	case "max_wan_mb":
		return mkCheck(fmt.Sprintf("WAN traffic <= %d MB", a.Value), fr.WANMB <= float64(a.Value),
			fmt.Sprintf("got %.1f MB", fr.WANMB))
	}
	return mkCheck("unknown assertion "+a.Type, false, "")
}

func expIndex(f *File, name string) int {
	for i := range f.Experiments {
		if f.Experiments[i].Name == name {
			return i
		}
	}
	return -1
}

// workloadSetup installs the named built-in workload. Every workload
// reports activity to the scheduler (the IdleFirst signal) and counts
// progress ticks for assertions. Setup reruns from scratch if the
// cluster readmits the experiment statelessly. Node names are the
// experiment's logical names and activity is reported on the session's
// own job, so the same setup installs unchanged on a branch session
// (its node names resolve through the branch alias).
func workloadSetup(c *emucheck.Cluster, e *Experiment, st *ExpStats) func(*emucheck.Session) {
	switch e.Workload {
	case "sleeploop":
		first := e.Nodes[0].Name
		return func(s *emucheck.Session) {
			k := s.Kernel(first)
			var tick func()
			tick = func() {
				st.Ticks++
				s.Touch()
				k.Usleep(100*sim.Millisecond, tick)
			}
			k.Usleep(100*sim.Millisecond, tick)
		}
	case "pingpong":
		a, b := e.Nodes[0].Name, e.Nodes[1].Name
		return func(s *emucheck.Session) {
			// Pace the exchange: an RPC every 50 ms, not a raw-fabric
			// packet storm.
			apps.RunPingPong(s.Kernel(a), s.Kernel(b), s.Addr(a), s.Addr(b), 50*sim.Millisecond, func(int) {
				st.Ticks++
				s.Touch()
			})
		}
	case "diskchurn":
		first := e.Nodes[0].Name
		return func(s *emucheck.Session) {
			k := s.Kernel(first)
			var off int64
			var write, wrote func()
			write = func() { k.WriteDisk(1<<30+off%(1<<30), 512<<10, wrote) }
			wrote = func() {
				off += 512 << 10
				st.Ticks++
				s.Touch()
				k.Usleep(sim.Second, write)
			}
			write()
		}
	case "racyelect":
		return racyElectSetup(c, e, st)
	case "quorum":
		return func(s *emucheck.Session) {
			nodes := make([]apps.QuorumNode, len(e.Nodes))
			for i, n := range e.Nodes {
				nodes[i] = apps.QuorumNode{Name: n.Name, K: s.Kernel(n.Name), Addr: s.Addr(n.Name)}
			}
			// Crash the first-elected leader at a seed-derived instant of
			// guest time, so every quorum run exercises failure detection
			// and bully re-election; the perturbation seed folds in so
			// branches explore different crash timings.
			crashAt := 20*sim.Second + sim.Time(sim.Mix64(c.Seed, s.Perturb().Seed, 1)%uint64(20*sim.Second))
			apps.RunQuorum(nodes, apps.QuorumConfig{
				CrashLeaderAt: crashAt,
				OnTick:        func() { st.Ticks++; s.Touch() },
				OnOutcome:     func(o string) { st.Outcome = o },
			})
		}
	case "commit2pc":
		return func(s *emucheck.Session) {
			nodes := make([]apps.CommitNode, len(e.Nodes))
			for i, n := range e.Nodes {
				nodes[i] = apps.CommitNode{Name: n.Name, K: s.Kernel(n.Name), Addr: s.Addr(n.Name)}
			}
			// Half the seed space crash-stops the coordinator mid-round
			// (the 2PC blocking window); the other half runs clean, so a
			// generated corpus shows both behaviors.
			crashRound := 0
			if sim.Mix64(c.Seed, s.Perturb().Seed, 3)%2 == 0 {
				crashRound = 6 + int(sim.Mix64(c.Seed, s.Perturb().Seed, 4)%6)
			}
			apps.RunCommit2PC(nodes, apps.CommitConfig{
				Seed:              int64(sim.Mix64(c.Seed, s.Perturb().Seed, 2)),
				CrashCoordAtRound: crashRound,
				OnTick:            func() { st.Ticks++; s.Touch() },
				OnOutcome:         func(o apps.CommitOutcome) { st.commit = o },
			})
		}
	}
	return nil // idle
}

// racyElectSetup installs the split-brain leader-election race: both
// nodes claim leadership after a backoff derived from measured timing
// jitter mixed with the session's perturbation seed (the common sin of
// deriving randomness from timing), so different branch seeds genuinely
// explore different interleavings — some elect a leader, some end in
// split-brain when the claims cross in flight.
func racyElectSetup(c *emucheck.Cluster, e *Experiment, st *ExpStats) func(*emucheck.Session) {
	aN, bN := e.Nodes[0].Name, e.Nodes[1].Name
	return func(s *emucheck.Session) {
		seed := s.Perturb().Seed
		ka, kb := s.Kernel(aN), s.Kernel(bN)
		claimed := make(map[string]bool)
		var pool guest.Pool[struct{}]
		decided := func() {
			st.Ticks++
			s.Touch()
		}
		decide := func(k *guest.Kernel, peerLogical string) func(simnet.Addr, *guest.Message) {
			return pool.Handler(func(simnet.Addr, *struct{}) {
				if claimed[k.Name] {
					st.Outcome = "split-brain"
					decided()
					return
				}
				if st.Outcome == "" {
					st.Outcome = "leader=" + peerLogical
					decided()
				}
			})
		}
		ka.Handle("claim", decide(ka, bN))
		kb.Handle("claim", decide(kb, aN))
		// Each candidate journals its ballot to a small on-disk log first
		// — the disk state branches inherit from the checkpoint prefix
		// and then diverge on.
		ka.WriteDisk(1<<30, 8<<20, nil)
		kb.WriteDisk(1<<30, 8<<20, nil)
		claim := func(k *guest.Kernel, peer simnet.Addr, mix int64) {
			t0 := k.Monotonic()
			k.Usleep(sim.Millisecond, func() {
				jitterNs := (int64(k.Monotonic()-t0) + mix) % 1000
				backoff := 60 * sim.Millisecond
				if jitterNs%2 == 1 {
					backoff = 140 * sim.Millisecond
				}
				k.Usleep(backoff, func() {
					if st.Outcome != "" {
						return // the peer's claim already won
					}
					claimed[k.Name] = true
					pool.Send(k, peer, 120, "claim", struct{}{})
				})
			})
		}
		// Per-node mixes decorrelate the two backoff draws under one seed.
		claim(ka, s.Addr(bN), seed)
		claim(kb, s.Addr(aN), seed>>1)
	}
}

// applyEvent executes one timed action.
func applyEvent(c *emucheck.Cluster, ev Event, st *ExpStats) error {
	sess := c.Tenant(ev.Target)
	if sess == nil {
		return fmt.Errorf("not submitted yet")
	}
	switch ev.Action {
	case "swap_out":
		return c.Park(ev.Target)
	case "swap_in":
		return c.Unpark(ev.Target)
	case "checkpoint":
		return sess.CheckpointAsync(core.Options{Incremental: true, SaveDeadline: c.SaveDeadline}, func(_ *core.Result, cerr error) {
			if cerr == nil {
				st.Checkpoints++
			}
		})
	case "inject":
		// A burst of fresh guest activity: dirty a few MB of disk and
		// report liveness — the "experimenter came back" signal. Only a
		// tenant actually in service can receive it (a stateful-parked
		// one still has Exp, but its guests are frozen off-hardware).
		if sess.Exp == nil || sess.State() != "running" {
			return fmt.Errorf("experiment is %s", sess.State())
		}
		k := sess.Exp.Node(sess.Scenario.Spec.Nodes[0].Name).K
		k.WriteDisk(2<<30, 4<<20, nil)
		c.Touch(ev.Target)
		return nil
	case "finish":
		return c.Finish(ev.Target)
	case "recover":
		return c.Recover(ev.Target)
	case "restart":
		return c.Restart(ev.Target)
	}
	return fmt.Errorf("unknown action %q", ev.Action)
}

// evalAssertion checks one assertion against the finished run.
func evalAssertion(c *emucheck.Cluster, f *File, stats []*ExpStats, res *Result, a Assertion) Check {
	idx := expIndex(f, a.Target)
	var sess *emucheck.Session
	if a.Target != "" {
		sess = c.Tenant(a.Target)
	}
	switch a.Type {
	case "state":
		got := "unsubmitted"
		if sess != nil {
			got = sess.State()
		}
		return mkCheck(fmt.Sprintf("%s state == %s", a.Target, a.Want), got == a.Want, "got "+got)
	case "min_ticks":
		got := stats[idx].Ticks
		return mkCheck(fmt.Sprintf("%s ticks >= %d", a.Target, a.Value), got >= a.Value, fmt.Sprintf("got %d", got))
	case "min_checkpoints":
		got := stats[idx].Checkpoints
		return mkCheck(fmt.Sprintf("%s checkpoints >= %d", a.Target, a.Value), int64(got) >= a.Value, fmt.Sprintf("got %d", got))
	case "min_preemptions":
		got := c.Sched.Preemptions
		desc := fmt.Sprintf("preemptions >= %d", a.Value)
		if sess != nil {
			got = sess.Preemptions()
			desc = fmt.Sprintf("%s preemptions >= %d", a.Target, a.Value)
		}
		return mkCheck(desc, int64(got) >= a.Value, fmt.Sprintf("got %d", got))
	case "all_admitted":
		// Branch tenants are counted by all_branches_admitted; this
		// assertion covers the experiments declared in the file.
		for i := range f.Experiments {
			t := c.Tenant(f.Experiments[i].Name)
			if t == nil {
				return mkCheck("all experiments admitted", false, f.Experiments[i].Name+" never submitted")
			}
			if t.Admissions() == 0 {
				return mkCheck("all experiments admitted", false, t.Scenario.Spec.Name+" never admitted")
			}
		}
		return mkCheck("all experiments admitted", true,
			fmt.Sprintf("%d experiments", len(f.Experiments)))
	case "max_queue_wait":
		lim, _ := parseDur(a.Dur)
		worstName, worst := "", sim.Time(0)
		for _, t := range c.Tenants() {
			if a.Target != "" && t != sess {
				continue
			}
			if w := t.QueueWait(); w > worst {
				worst, worstName = w, t.Scenario.Spec.Name
			}
		}
		return mkCheck(fmt.Sprintf("queue wait <= %s", a.Dur), worst <= lim,
			fmt.Sprintf("worst %v (%s)", worst, worstName))
	case "virtual_elapsed_max":
		lim, _ := parseDur(a.Dur)
		if sess == nil || sess.Exp == nil {
			state := "unsubmitted"
			if sess != nil {
				state = sess.State()
			}
			return mkCheck(fmt.Sprintf("%s/%s virtual <= %s", a.Target, a.Node, a.Dur), false,
				"experiment is "+state)
		}
		got := sess.VirtualNow(a.Node)
		return mkCheck(fmt.Sprintf("%s/%s virtual <= %s", a.Target, a.Node, a.Dur), got <= lim,
			fmt.Sprintf("got %v (real %v)", got, c.Now()))
	case "utilization_min":
		got := c.Utilization() * 100
		return mkCheck(fmt.Sprintf("pool utilization >= %d%%", a.Value), got >= float64(a.Value),
			fmt.Sprintf("got %.0f%%", got))
	case "outcome_found":
		desc := fmt.Sprintf("outcome %q explored", a.Want)
		if res.Search == nil {
			return mkCheck(desc, false, "no search ran")
		}
		var seen []string
		for _, b := range res.Search.Branches {
			if b.Outcome == a.Want {
				return mkCheck(desc, true, "by "+b.Name)
			}
			if b.Outcome != "" {
				seen = append(seen, b.Outcome)
			}
		}
		return mkCheck(desc, false, fmt.Sprintf("saw %v", seen))
	case "min_distinct_outcomes":
		desc := fmt.Sprintf("distinct outcomes >= %d", a.Value)
		if res.Search == nil {
			return mkCheck(desc, false, "no search ran")
		}
		return mkCheck(desc, int64(res.Search.DistinctOutcomes) >= a.Value,
			fmt.Sprintf("got %d", res.Search.DistinctOutcomes))
	case "all_branches_admitted":
		desc := "all branches admitted"
		if res.Search == nil {
			return mkCheck(desc, false, "no search ran")
		}
		if len(res.Search.Branches) != res.Search.FanOut {
			return mkCheck(desc, false,
				fmt.Sprintf("%d of %d branches forked", len(res.Search.Branches), res.Search.FanOut))
		}
		for _, b := range res.Search.Branches {
			t := c.Tenant(b.Name)
			if t == nil || t.Admissions() == 0 {
				return mkCheck(desc, false, b.Name+" never admitted")
			}
		}
		return mkCheck(desc, true, fmt.Sprintf("%d branches", len(res.Search.Branches)))
	case "recovered":
		want := a.Value
		if want <= 0 {
			want = 1
		}
		desc := fmt.Sprintf("%s recovered >= %d times", a.Target, want)
		if sess == nil {
			return mkCheck(desc, false, "never submitted")
		}
		return mkCheck(desc, int64(sess.Recoveries()) >= want,
			fmt.Sprintf("got %d (state %s)", sess.Recoveries(), sess.State()))
	case "max_lost_work_ms":
		desc := fmt.Sprintf("%s lost work <= %d ms", a.Target, a.Value)
		if sess == nil {
			return mkCheck(desc, false, "never submitted")
		}
		got := sess.LostWork().Millis()
		return mkCheck(desc, got <= float64(a.Value), fmt.Sprintf("got %.0f ms", got))
	case "max_detect_ms":
		desc := fmt.Sprintf("%s detected <= %d ms after crash", a.Target, a.Value)
		if sess == nil {
			return mkCheck(desc, false, "never submitted")
		}
		if sess.Detections() == 0 {
			return mkCheck(desc, false, "never detected")
		}
		got := sess.MaxDetectLatency().Millis()
		return mkCheck(desc, got <= float64(a.Value), fmt.Sprintf("got %.0f ms", got))
	case "max_mttr_ms":
		desc := fmt.Sprintf("%s back in service <= %d ms after crash", a.Target, a.Value)
		if sess == nil {
			return mkCheck(desc, false, "never submitted")
		}
		if sess.MaxMTTR() == 0 {
			return mkCheck(desc, false,
				fmt.Sprintf("never recovered (state %s)", sess.State()))
		}
		got := sess.MaxMTTR().Millis()
		return mkCheck(desc, got <= float64(a.Value), fmt.Sprintf("got %.0f ms", got))
	case "remediated":
		want := a.Value
		if want <= 0 {
			want = 1
		}
		desc := fmt.Sprintf("%s remediated >= %d times unattended", a.Target, want)
		if sess == nil {
			return mkCheck(desc, false, "never submitted")
		}
		return mkCheck(desc, int64(sess.Remediations()) >= want && !sess.Quarantined(),
			fmt.Sprintf("got %d (state %s, quarantined %v)",
				sess.Remediations(), sess.State(), sess.Quarantined()))
	case "epochs_aborted":
		got := 0
		desc := fmt.Sprintf("epochs aborted >= %d", a.Value)
		if a.Target != "" {
			desc = fmt.Sprintf("%s epochs aborted >= %d", a.Target, a.Value)
			if sess != nil {
				got = sess.EpochsAborted()
			}
		} else {
			for _, t := range c.Tenants() {
				got += t.EpochsAborted()
			}
		}
		return mkCheck(desc, int64(got) >= a.Value, fmt.Sprintf("got %d", got))
	case "min_cache_hit_ratio":
		desc := fmt.Sprintf("cache hit ratio >= %d%%", a.Value)
		if res.Storage == nil {
			return mkCheck(desc, false, "no storage stanza")
		}
		gotPct := res.Storage.HitRatio * 100
		return mkCheck(desc, gotPct >= float64(a.Value),
			fmt.Sprintf("got %.0f%% (%d hits / %d misses)", gotPct,
				res.Storage.CacheHits, res.Storage.CacheMisses))
	case "max_remote_mb":
		desc := fmt.Sprintf("remote chain traffic <= %d MB", a.Value)
		if res.Storage == nil {
			return mkCheck(desc, false, "no storage stanza")
		}
		return mkCheck(desc, res.Storage.RemoteMB <= float64(a.Value),
			fmt.Sprintf("got %.1f MB", res.Storage.RemoteMB))
	case "max_swap_mb":
		var gotBytes int64
		desc := fmt.Sprintf("swap traffic <= %d MB", a.Value)
		if a.Target != "" {
			gotBytes = c.TB.Server.ByTag[a.Target]
			desc = fmt.Sprintf("%s swap traffic <= %d MB", a.Target, a.Value)
		} else {
			gotBytes = int64(c.TB.Server.Received + c.TB.Server.Served)
		}
		gotMB := float64(gotBytes) / (1 << 20)
		return mkCheck(desc, gotMB <= float64(a.Value), fmt.Sprintf("got %.1f MB", gotMB))
	}
	return mkCheck("unknown assertion "+a.Type, false, "")
}

func mkCheck(desc string, ok bool, detail string) Check {
	return Check{Desc: desc, Ok: ok, Detail: detail}
}

// Render prints the run as a human-readable report.
func (r *Result) Render() string {
	if fr := r.Federation; fr != nil {
		s := fmt.Sprintf("scenario %s: federated fleet — %d tenants over %d facilities (workers %d), ran %s\n",
			r.Name, fr.Tenants, fr.Facilities, fr.Workers, r.Ran)
		s += fmt.Sprintf("federation: %d/%d completed, %d windows, %d migrations, %d WAN msgs (%.1f MB), %.1f MB warmed, %.1f MB remote, digest %s\n",
			fr.Completed, fr.Tenants, fr.Windows, fr.Migrations, fr.WANMsgs, fr.WANMB, fr.WarmedMB, fr.RemoteMB, fr.Digest)
		for _, ch := range r.Checks {
			mark := "PASS"
			if !ch.Ok {
				mark = "FAIL"
			}
			s += fmt.Sprintf("%s  %s (%s)\n", mark, ch.Desc, ch.Detail)
		}
		verdict := "PASS"
		if !r.Pass {
			verdict = "FAIL"
		}
		return s + "result: " + verdict + "\n"
	}
	t := &metrics.Table{Header: []string{"experiment", "state", "ticks", "ckpts", "admissions", "preemptions", "queue wait (s)", "swap MB", "aborted", "recoveries"}}
	for _, row := range r.Experiments {
		t.AddRow(row.Name, row.State, row.Ticks, row.Checkpoints, row.Admissions, row.Preemptions,
			fmt.Sprintf("%.1f", row.QueueWaitS), fmt.Sprintf("%.1f", row.SwapMB),
			row.EpochsAborted, row.Recoveries)
	}
	s := fmt.Sprintf("scenario %s: ran %s (%s swap), pool utilization %.0f%%, %d admissions, %d preemptions (%.1f MB preempted state)\n%s",
		r.Name, r.Ran, r.SwapMode, r.Utilization*100, r.Admissions, r.Preemptions, r.PreemptedMB, t.String())
	if sr := r.Search; sr != nil {
		mode := "shared-lineage"
		if sr.Naive {
			mode = "naive full-copy"
		}
		bt := &metrics.Table{Header: []string{"branch", "seed", "state", "outcome", "ticks"}}
		for _, b := range sr.Branches {
			bt.AddRow(b.Name, b.Seed, b.State, b.Outcome, b.Ticks)
		}
		s += fmt.Sprintf("search: %d-way fan-out from %s (%s): %d distinct outcomes, store %.1f MB (%.1f MB shared by ref), multicast saved %.1f MB\n%s",
			sr.FanOut, sr.Parent, mode, sr.DistinctOutcomes, sr.StoredMB, sr.SharedMB, sr.MulticastSavedMB, bt.String())
	}
	if st := r.Storage; st != nil {
		s += fmt.Sprintf("storage: %s tier — %.1f MB local, %.1f MB remote", st.Backend, st.LocalMB, st.RemoteMB)
		if st.SpillMB > 0 {
			s += fmt.Sprintf(", %.1f MB spilled", st.SpillMB)
		}
		if st.CacheMB > 0 {
			s += fmt.Sprintf("; cache %d MB: %d hits / %d misses (%.0f%%), %d evictions (%.1f MB)",
				st.CacheMB, st.CacheHits, st.CacheMisses, st.HitRatio*100, st.CacheEvictions, st.CacheEvictedMB)
		}
		s += "\n"
	}
	if h := r.Health; h != nil {
		s += fmt.Sprintf("health: %s policy — %d probes (%d failed), %d detections; %d remediations, %d retries, %d quarantines; cordons %d issued / %d released (%d open), %d victims drained",
			h.Policy, h.Probes, h.Fails, h.Detections, h.Remediations, h.Retries,
			h.Quarantines, h.CordonsIssued, h.CordonsReleased, h.OpenCordons, h.DrainedVictims)
		s += "\n"
		for _, e := range h.Errors {
			s += "health error: " + e + "\n"
		}
	}
	if fs := r.Faults; fs != nil {
		s += fmt.Sprintf("faults: %d planned — %d crashes, %d notifications dropped, %d delayed, %d slowdowns",
			fs.Planned, fs.Crashes, fs.Dropped, fs.Delayed, fs.Slowed)
		if r.Bus != nil {
			s += fmt.Sprintf("; control LAN %d published / %d delivered / %d dropped",
				r.Bus.Published, r.Bus.Delivered, r.Bus.Dropped)
		}
		s += "\n"
		for _, e := range fs.Errors {
			s += "fault error: " + e + "\n"
		}
	}
	for _, e := range r.EventErrors {
		s += "event error: " + e + "\n"
	}
	for _, ch := range r.Checks {
		mark := "PASS"
		if !ch.Ok {
			mark = "FAIL"
		}
		s += fmt.Sprintf("%s  %s (%s)\n", mark, ch.Desc, ch.Detail)
	}
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	s += "result: " + verdict + "\n"
	return s
}
