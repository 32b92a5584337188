package emucheck

import (
	"fmt"

	"emucheck/internal/core"
	"emucheck/internal/emulab"
	"emucheck/internal/fault"
	"emucheck/internal/health"
	"emucheck/internal/metrics"
	"emucheck/internal/remediate"
	"emucheck/internal/sched"
	"emucheck/internal/sim"
	"emucheck/internal/storage"
	"emucheck/internal/swap"
	"emucheck/internal/timetravel"
	"emucheck/internal/xen"
)

// Policy re-exports the scheduler's victim-selection policies.
type Policy = sched.Policy

// Preemption policies, re-exported.
const (
	FIFO      = sched.FIFO
	IdleFirst = sched.IdleFirst
	Priority  = sched.Priority
)

// Cluster is the shared facility hosting many experiments at once: one
// deterministic simulator, one testbed (hardware pool, control LAN,
// file server), and a preemptive swap scheduler that time-shares the
// pool by statefully swapping experiments in and out (§2, §5). Each
// submitted Scenario becomes a tenant Session with its own coordinator
// and swap manager; all of them contend for the same control-network
// file server, so swap costs are charged realistically.
//
// Everything stays bit-deterministic under one seed: tenants are kept
// in slices, scheduler decisions fire at well-defined instants, and all
// randomness flows from the cluster's simulator.
type Cluster struct {
	Seed  int64
	S     *sim.Simulator
	TB    *emulab.Testbed
	Sched *sched.Scheduler

	// Stateless switches parking to the classic Emulab swap-out that
	// destroys run-time state (re-admission reboots from scratch and
	// reruns Setup). It exists as the evaluation baseline against
	// stateful swapping; set it before submitting tenants.
	Stateless bool

	// Incremental switches parking to the dirty-delta pipeline: parks
	// upload only state dirtied since the tenant's last resident
	// checkpoint (committed to a per-node lineage), resumes replay base
	// + delta chain, and per-node uploads share the control-LAN pipe as
	// parallel streams. Preemption cost becomes proportional to dirtied
	// state. Set it before submitting tenants.
	Incremental bool

	// SwapStats accumulates delta/full byte counts across every
	// tenant's swap cycles (see swap.Manager.Stats for the keys).
	SwapStats *metrics.Counters

	// Chains is the facility-wide refcounted, content-addressed
	// checkpoint-chain store: branches forked from the same checkpoint
	// share their base and common deltas by reference, and releasing a
	// branch garbage-collects deltas no branch can reach.
	Chains *storage.ChainStore

	// Storage selects the physical tier checkpoint-chain segments live
	// on and the node-local delta cache in front of the remote tier.
	// Set it (or call ConfigureStorage) before submitting tenants; the
	// zero value keeps chain state on the file server.
	Storage StorageOptions

	// storageTier and storageCache are the facility-wide tier and
	// cache built from Storage on first use.
	storageTier  *storage.Tier
	storageCache *storage.DeltaCache

	// NaiveBranchCopy switches Branch to the evaluation baseline: each
	// branch stages its own full unicast copy of the parent state (no
	// lineage sharing, no multicast) and parks under the cluster's
	// plain transfer mode. It exists so the shared-lineage fan-out can
	// be measured against per-branch full copies.
	NaiveBranchCopy bool

	// SaveDeadline bounds the save phase of every tenant's checkpoint
	// epochs and swap-out freezes: a member that cannot barrier in time
	// (crashed, or its notification was lost) aborts the epoch cleanly
	// instead of hanging it. Zero disables straggler detection. Set it
	// before submitting tenants; fault-injected runs should always set
	// it, or a crash mid-epoch leaves the epoch in flight forever.
	SaveDeadline sim.Time

	tenants   []*Session
	byName    map[string]*Session
	nodeOwner map[string]string

	// health and remed are the autonomous health loop (EnableHealth):
	// the failure-detection monitor and the remediation controller its
	// verdicts drive. Both nil until enabled — with health off, no probe
	// events enter the simulation.
	health *health.Monitor
	remed  *remediate.Controller

	// phaseWatch fans a tenant's epoch FSM transitions out to
	// observers (fault injection's "crash during save" trigger).
	phaseWatch map[string][]func(core.Phase)
}

// NewCluster creates a cluster over a hardware pool of the given size.
func NewCluster(pool int, seed int64, policy Policy) *Cluster {
	s := sim.New(seed)
	return &Cluster{
		Seed:       seed,
		S:          s,
		TB:         emulab.NewTestbed(s, pool),
		Sched:      sched.New(s, pool, policy),
		SwapStats:  metrics.NewCounters(),
		Chains:     storage.NewChainStore(),
		byName:     make(map[string]*Session),
		nodeOwner:  make(map[string]string),
		phaseWatch: make(map[string][]func(core.Phase)),
	}
}

// StorageOptions selects the checkpoint-chain storage tier for a
// cluster (see docs/storage.md).
type StorageOptions struct {
	// Backend names the tier: "" or "mem" (no tier: chain state stays
	// on the file server), "disk" (node-local snapshot disk: local
	// seek/bandwidth costs, capacity-bounded, spills to the pool), or
	// "remote" (shared pool over the control LAN: one upload per epoch
	// commit plus per-request round trips).
	Backend string
	// CacheMB sizes the node-local delta cache fronting remotely-homed
	// segments, in MB (0 = no cache).
	CacheMB int64
	// DiskMB caps the disk tier's snapshot-disk budget, in MB
	// (0 = storage.DefaultSnapshotDiskBytes).
	DiskMB int64
}

// ConfigureStorage builds the facility-wide storage tier and delta
// cache from o and wires them into every current and future tenant's
// swap manager. It rejects unknown backend names. Call it before the
// first swap cycle; reconfiguring mid-run would strand placement
// state.
func (c *Cluster) ConfigureStorage(o StorageOptions) error {
	tier, err := storage.ParseTier(o.Backend, o.DiskMB<<20)
	if err != nil {
		return err
	}
	c.Storage = o
	c.storageTier = tier
	c.storageCache = nil
	if tier != nil && o.CacheMB > 0 {
		c.storageCache = storage.NewDeltaCache(o.CacheMB<<20, c.Chains.Refs)
	}
	c.Chains.Mirror(tier, c.storageCache)
	for _, sess := range c.tenants {
		if sess.Exp != nil && sess.Exp.Swap != nil {
			sess.Exp.Swap.Tier = tier
			sess.Exp.Swap.Cache = c.storageCache
		}
	}
	return nil
}

// DeltaCache returns the facility-wide delta cache (nil when off).
func (c *Cluster) DeltaCache() *storage.DeltaCache { return c.storageCache }

// swapOptions picks the tenant's park/resume transfer mode. Branch
// tenants restore clone-aware (their chains share a prefix with their
// siblings) unless the naive-copy baseline is selected.
func (c *Cluster) swapOptions(sess *Session) swap.Options {
	if sess != nil && sess.IsBranch() && !c.NaiveBranchCopy {
		return swap.Options{Mode: swap.Branch}
	}
	if c.Incremental {
		return swap.Options{Mode: swap.Incremental}
	}
	return swap.Options{}
}

// parkCost estimates the bytes a stateful park of sess would move right
// now: per node, the memory state to checkpoint (pages dirtied since
// the last resident checkpoint under incremental swapping, the full
// resident image otherwise) plus the live current disk delta. The
// scheduler uses it to price victim selection.
func (c *Cluster) parkCost(sess *Session) int64 {
	if sess.Exp == nil || sess.Exp.Swap == nil {
		return 0
	}
	incremental := c.swapOptions(sess).Mode != swap.Full
	var total int64
	for _, n := range sess.Exp.Swap.Nodes {
		if incremental && sess.Exp.Swap.Cycle > 0 {
			total += int64(n.HV.K.Dirty.EpochDirty()) * int64(n.HV.P.PageSize)
		} else {
			total += n.HV.K.MemoryImageBytes()
		}
		total += n.Vol.CurrentDeltaBytes(n.IsFree)
	}
	return total
}

// adopt registers a tenant's names; it is also used by the one-tenant
// NewSession path, which bypasses the scheduler.
func (c *Cluster) adopt(sess *Session) {
	c.tenants = append(c.tenants, sess)
	c.byName[sess.Scenario.Spec.Name] = sess
	for _, ns := range sess.Scenario.Spec.Nodes {
		c.nodeOwner[ns.Name] = sess.Scenario.Spec.Name
	}
}

// Submit queues a scenario for admission. The scheduler admits it when
// the pool has room — preempting running tenants by policy if needed —
// and the scenario's Setup runs on first admission. Node names must be
// unique across the cluster (they are control-network identities).
func (c *Cluster) Submit(sc Scenario, priority int) (*Session, error) {
	name := sc.Spec.Name
	if name == "" {
		return nil, fmt.Errorf("emucheck: scenario needs a name")
	}
	if old, dup := c.byName[name]; dup && old.State() != "done" {
		return nil, fmt.Errorf("emucheck: experiment %q already submitted", name)
	}
	for _, ns := range sc.Spec.Nodes {
		if owner, taken := c.nodeOwner[ns.Name]; taken {
			return nil, fmt.Errorf("emucheck: node name %q already used by experiment %q", ns.Name, owner)
		}
	}
	sess := &Session{
		Scenario: sc, Seed: c.Seed, Priority: priority,
		C: c, S: c.S, TB: c.TB,
		Tree: timetravel.NewTree(146 << 30),
	}
	job := &sched.Job{
		Name: name, Need: sc.Spec.NodesNeeded(), Priority: priority,
		Preemptible: sc.Spec.Swappable() || c.Stateless,
		Hooks: sched.Hooks{
			Start: func(done func(error)) { c.startTenant(sess, done) },
		},
	}
	// Only a fully swappable experiment can be parked statefully: with a
	// mixed spec the swap manager would save the swappable subset while
	// the rest kept running on released hardware. The stateless baseline
	// can always park (state is discarded anyway). Leaving the hooks nil
	// turns park attempts into clean scheduler errors.
	if job.Preemptible {
		job.Hooks.Park = func(done func(error)) { c.parkTenant(sess, done) }
		job.Hooks.Resume = func(done func(error)) { c.resumeTenant(sess, done) }
		if !c.Stateless {
			job.Hooks.ParkCost = func() int64 { return c.parkCost(sess) }
		}
	}
	sess.job = job
	if err := c.Sched.Submit(job); err != nil {
		return nil, err
	}
	c.adopt(sess)
	if c.health != nil && !c.health.Watching(name) {
		if err := c.health.Watch(name); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// watchPhase registers an observer of a tenant's epoch FSM
// transitions (the fault layer's crash-during-save trigger).
func (c *Cluster) watchPhase(name string, fn func(core.Phase)) {
	c.phaseWatch[name] = append(c.phaseWatch[name], fn)
}

// ensureStorage realizes a Storage field set directly (without
// ConfigureStorage) the first time a tenant is wired. An invalid
// backend literal is a programmer error and panics.
func (c *Cluster) ensureStorage() {
	if c.storageTier != nil || c.storageCache != nil || c.Storage == (StorageOptions{}) {
		return
	}
	if err := c.ConfigureStorage(c.Storage); err != nil {
		panic("emucheck: " + err.Error())
	}
}

// wireTenant attaches cluster-wide services to a freshly instantiated
// experiment: shared swap accounting, the chain store, the storage
// tier and delta cache, the save deadline, and the epoch phase
// fan-out.
func (c *Cluster) wireTenant(sess *Session, exp *emulab.Experiment) {
	sess.Exp = exp
	if exp.Swap != nil {
		c.ensureStorage()
		exp.Swap.Stats = c.SwapStats
		exp.Swap.Chains = c.Chains
		exp.Swap.SaveDeadline = c.SaveDeadline
		exp.Swap.Tier = c.storageTier
		exp.Swap.Cache = c.storageCache
	}
	name := sess.Scenario.Spec.Name
	exp.Coord.OnPhase = func(_ int, ph core.Phase) {
		for _, fn := range c.phaseWatch[name] {
			fn(ph)
		}
	}
}

// startTenant is the scheduler's first-admission hook: allocate, load
// images, boot, install the workload. Admission plumbing costs the
// paper's fixed eight seconds (§7.2). A spec that cannot instantiate
// fails the admission (the scheduler retires the job) instead of
// taking the testbed down.
func (c *Cluster) startTenant(sess *Session, done func(error)) {
	c.S.DoAfter(swap.NodeSetupTime, "cluster.provision", func() {
		exp, err := c.TB.SwapIn(sess.Scenario.Spec)
		if err != nil {
			sess.LastErr = fmt.Errorf("emucheck: admit %s: %v", sess.Scenario.Spec.Name, err)
			done(sess.LastErr)
			return
		}
		c.wireTenant(sess, exp)
		if sess.Scenario.Setup != nil {
			sess.Scenario.Setup(sess)
		}
		done(nil)
	})
}

// parkTenant swaps a tenant out to free its hardware. Stateful parking
// preserves run-time state on the file server; the stateless baseline
// discards it (keeping only the definition). A swap-out whose freeze
// epoch aborts reports the error upward — the tenant was thawed and
// keeps running on its hardware.
func (c *Cluster) parkTenant(sess *Session, done func(error)) {
	if c.Stateless {
		c.TB.SwapOutStateless(sess.Exp)
		sess.Exp = nil
		c.S.DoAfter(0, "cluster.stateless-out", func() { done(nil) })
		return
	}
	err := sess.Exp.Swap.SwapOut(c.swapOptions(sess), func(_ []*swap.OutReport, serr error) {
		if serr != nil {
			sess.LastErr = serr
			done(serr)
			return
		}
		c.TB.ReleaseHardware(sess.Exp)
		done(nil)
	})
	if err != nil {
		sess.LastErr = err
		done(err)
	}
}

// resumeTenant is the re-admission hook. Stateful: re-acquire hardware
// and swap the preserved state back in (the interruption stays hidden
// behind the temporal firewall). Crash recovery: re-acquire hardware
// and restore from the last committed epoch. Stateless (or after
// Restart discarded the instance): reboot from the golden image — node
// setup plus a Frisbee fetch — and rerun Setup, losing all prior
// progress.
func (c *Cluster) resumeTenant(sess *Session, done func(error)) {
	if c.Stateless || sess.Exp == nil {
		c.S.DoAfter(swap.NodeSetupTime+swap.GoldenFetchTime, "cluster.stateless-in", func() {
			exp, err := c.TB.SwapInByName(sess.Scenario.Spec.Name)
			if err != nil {
				sess.LastErr = fmt.Errorf("emucheck: readmit %s: %v", sess.Scenario.Spec.Name, err)
				done(sess.LastErr)
				return
			}
			c.wireTenant(sess, exp)
			if sess.Scenario.Setup != nil {
				sess.Scenario.Setup(sess)
			}
			done(nil)
		})
		return
	}
	if err := c.TB.AcquireHardware(sess.Exp); err != nil {
		sess.LastErr = fmt.Errorf("emucheck: readmit %s: %v", sess.Scenario.Spec.Name, err)
		done(sess.LastErr)
		return
	}
	fail := func(err error) {
		sess.LastErr = err
		c.TB.ReleaseHardware(sess.Exp)
		done(err)
	}
	if sess.recoverPending {
		sess.recoverPending = false
		err := sess.Exp.Swap.Recover(func(_ []*swap.InReport, rerr error) {
			if rerr != nil {
				fail(rerr)
				return
			}
			// The network core restarts alongside the endpoints, and the
			// genealogy notes the recovery: work since the restored epoch
			// is the incarnation's lost work.
			sess.Exp.Coord.ThawDelayNodes()
			sess.recoveries++
			sess.lostWork += sess.pendingLost
			sess.pendingLost = 0
			sess.recoveredAt = c.S.Now()
			if sess.crashedAt > 0 && sess.recoveredAt > sess.crashedAt {
				if r := sess.recoveredAt - sess.crashedAt; r > sess.mttrMax {
					sess.mttrMax = r
				}
			}
			if sess.epochInterval > 0 {
				// The crash stopped the committed-epoch pipeline; the
				// recovered incarnation needs its restore point to keep
				// refreshing, or a second crash loses unbounded work.
				sess.Exp.Swap.StartEpochs(sess.epochInterval)
			}
			done(nil)
		})
		if err != nil {
			fail(err)
		}
		return
	}
	err := sess.Exp.Swap.SwapIn(c.swapOptions(sess), func(_ []*swap.InReport, serr error) {
		if serr != nil {
			fail(serr)
			return
		}
		done(nil)
	})
	if err != nil {
		fail(err)
	}
}

// Park voluntarily swaps a running tenant out (scenario "swap_out"); it
// holds no hardware until Unpark re-queues it.
func (c *Cluster) Park(name string) error { return c.Sched.Park(name) }

// Unpark re-queues a parked tenant for admission ("swap_in").
func (c *Cluster) Unpark(name string) error { return c.Sched.Unpark(name) }

// Touch is Session.Touch for the named tenant.
func (c *Cluster) Touch(name string) {
	if sess := c.byName[name]; sess != nil {
		sess.Touch()
	}
}

// Finish retires a tenant: its hardware returns to the pool and its
// definition is retained on the testbed.
func (c *Cluster) Finish(name string) error {
	sess, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("emucheck: no experiment %q", name)
	}
	if sess.job != nil {
		switch sess.job.State() {
		case sched.Running, sched.Parked, sched.Queued, sched.Crashed:
		default:
			return fmt.Errorf("emucheck: %q is %s, cannot finish", name, sess.State())
		}
	} else if sess.done {
		return fmt.Errorf("emucheck: %q is already finished", name)
	}
	// Release the testbed hardware before telling the scheduler: the
	// scheduler re-admits the queue head synchronously, and that tenant
	// may need these very nodes.
	freed := 0
	if sess.Exp != nil {
		if sess.Exp.Swap != nil {
			sess.Exp.Swap.StopEpochs()
			// Prune the tenant's checkpoint chains: its references drop,
			// and the store garbage-collects deltas no surviving branch
			// shares. A parent's release leaves forked prefixes alive for
			// its branches; the last release reclaims them.
			sess.Exp.Swap.ReleaseLineages()
		}
		freed = sess.Exp.Allocated()
		c.TB.SwapOutStateless(sess.Exp)
		sess.Exp = nil
	}
	// Free the tenant's node names so its retained definition (or
	// another experiment reusing them) can be submitted again; the
	// session stays registered for state queries and reporting until a
	// resubmission replaces it.
	for _, ns := range sess.Scenario.Spec.Nodes {
		delete(c.nodeOwner, ns.Name)
	}
	if c.health != nil {
		c.health.Unwatch(name)
	}
	if sess.job == nil {
		// Standalone sessions were charged via Reserve; balance the
		// scheduler's ledger too.
		sess.done = true
		c.Sched.Release(freed)
		return nil
	}
	return c.Sched.Finish(name)
}

// Tenant returns a submitted experiment's session by name.
func (c *Cluster) Tenant(name string) *Session { return c.byName[name] }

// Genealogy reports a tenant's fork ancestry, root first. A tenant
// that is not a branch is its own one-element genealogy.
func (c *Cluster) Genealogy(name string) []string {
	var path []string
	for cur := name; cur != ""; {
		path = append([]string{cur}, path...)
		s := c.byName[cur]
		if s == nil {
			break
		}
		cur = s.parentName
	}
	return path
}

// Tenants returns every tenant in submit order.
func (c *Cluster) Tenants() []*Session { return c.tenants }

// RunFor advances the cluster by d of simulated real time.
func (c *Cluster) RunFor(d sim.Time) { c.S.RunFor(d) }

// RunUntilIdle drains every pending event.
func (c *Cluster) RunUntilIdle() { c.S.Run() }

// Now reports simulated real time.
func (c *Cluster) Now() sim.Time { return c.S.Now() }

// Utilization reports the time-averaged fraction of the pool allocated.
func (c *Cluster) Utilization() float64 { return c.Sched.Utilization() }

// Demand reports the summed node demand of the cluster's live jobs —
// the load signal federated admission uses to place tenants on the
// least-loaded facility (internal/federation).
func (c *Cluster) Demand() int { return c.Sched.Demand() }

// Crash fail-stops a tenant: every node dies where it stands (a save
// in flight aborts its epoch; the temporal firewalls engage and never
// disengage on this incarnation), the tenant's hardware returns to the
// pool, and the job leaves service until Recover restores it from its
// last committed checkpoint epoch — or Restart re-runs it from
// scratch. Crashing a parked (swapped-out) tenant is survivable by
// construction: its state already lives on the file server and it
// holds no hardware, so only un-committed progress is at stake.
func (c *Cluster) Crash(name string) error {
	sess, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("emucheck: no experiment %q", name)
	}
	if sess.job == nil {
		return fmt.Errorf("emucheck: %q is standalone; crash/recover needs a scheduler-managed tenant", name)
	}
	// Lost work is fixed at crash time: the gap between the crash and
	// the last committed restore point, floored at the current service
	// entry — a tenant crashed while parked (or queued) loses nothing,
	// since its park committed everything and nothing ran since.
	wasInService := sess.job.State() == sched.Running || sess.job.State() == sched.Parking
	if err := c.Sched.Fail(name); err != nil {
		return fmt.Errorf("emucheck: crash %s: %v", name, err)
	}
	sess.crashedAt = c.S.Now()
	sess.pendingLost = 0
	if wasInService && sess.Exp != nil && sess.Exp.Swap != nil {
		if lc := sess.Exp.Swap.LastCommitAt(); lc > 0 {
			base := lc
			if rs := sess.job.RunningSince(); rs > base {
				base = rs
			}
			if sess.crashedAt > base {
				sess.pendingLost = sess.crashedAt - base
			}
		}
	}
	if sess.Exp != nil {
		// Kill the machines first so the epoch abort's thaw fan-out
		// skips them, then abort whatever epoch was in flight (a held
		// epoch already committed and is left alone — it is exactly the
		// restore point a recovery will use).
		for _, ns := range sess.Exp.Spec.Nodes {
			sess.Exp.Nodes[ns.Name].HV.Crash()
		}
		sess.Exp.Coord.AbortInFlight("node crash")
		for _, dn := range sess.Exp.DelayNodes {
			dn.Freeze()
		}
		if sess.Exp.Swap != nil {
			sess.Exp.Swap.StopEpochs()
		}
		c.TB.ReleaseHardware(sess.Exp)
	}
	return nil
}

// Recover re-admits a crashed tenant and restores it from its last
// committed checkpoint epoch: hardware is re-acquired through the
// scheduler (queueing and preempting like any admission), the file
// server streams each node's memory image and chain replay back, and
// the guests resume from the restored epoch. Work since that epoch is
// lost and accounted in Session.LostWork; the genealogy notes the
// recovery in Session.Recoveries.
func (c *Cluster) Recover(name string) error {
	sess, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("emucheck: no experiment %q", name)
	}
	if sess.job == nil {
		return fmt.Errorf("emucheck: %q is standalone; crash/recover needs a scheduler-managed tenant", name)
	}
	if sess.job.State() != sched.Crashed {
		return fmt.Errorf("emucheck: %q is %s, not crashed", name, sess.State())
	}
	if sess.Exp == nil {
		// Crashed before first admission: nothing was lost; a plain
		// re-queue instantiates it fresh.
		return c.Sched.Recover(name)
	}
	if sess.Exp.Swap == nil {
		return fmt.Errorf("emucheck: %q has no swappable nodes; only Restart can revive it", name)
	}
	if sess.Exp.Swap.LastCommitAt() == 0 {
		return fmt.Errorf("emucheck: %q has no committed epoch to recover from; use Restart (or run StartEpochs before the crash)", name)
	}
	sess.recoverPending = true
	return c.Sched.Recover(name)
}

// Restart revives a crashed tenant from scratch — the classic
// stateless answer to a crash, and the recovery benchmark's baseline:
// the dead instance is discarded (its chains released for GC), and
// re-admission reboots from the golden image and re-runs Setup, losing
// all prior progress.
func (c *Cluster) Restart(name string) error {
	sess, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("emucheck: no experiment %q", name)
	}
	if sess.job == nil {
		return fmt.Errorf("emucheck: %q is standalone; crash/recover needs a scheduler-managed tenant", name)
	}
	if sess.job.State() != sched.Crashed {
		return fmt.Errorf("emucheck: %q is %s, not crashed", name, sess.State())
	}
	if sess.Exp != nil {
		if sess.Exp.Swap != nil {
			sess.Exp.Swap.StopEpochs()
			sess.Exp.Swap.ReleaseLineages()
		}
		c.TB.SwapOutStateless(sess.Exp)
		sess.Exp = nil
	}
	return c.Sched.Recover(name)
}

// InjectFaults arms a seeded fault plan against the cluster: crashes
// route through Crash (with during-save crashes triggered off the
// target's epoch FSM), control-LAN drop/delay perturbations install on
// the testbed bus, and slow-disk / slow-save perturbations reach into
// the named node. The plan is deterministic under its seed, so two
// same-seed faulty runs replay identically.
func (c *Cluster) InjectFaults(p *fault.Plan) {
	slowDisks := make(map[*emulab.ExpNode]int)
	slowSaves := make(map[*xen.Hypervisor]*savedRates)
	p.Arm(c.S, c.TB.Bus, fault.Hooks{
		Crash: func(target, node string) error {
			return c.Crash(target)
		},
		WhenSaving: func(target string, fn func()) {
			fired := false
			c.watchPhase(target, func(ph core.Phase) {
				if fired || ph != core.PhaseSaving {
					return
				}
				fired = true
				fn()
			})
		},
		SlowDisk: func(target, node string, factor float64, d sim.Time) error {
			n, err := c.faultNode(target, node)
			if err != nil {
				return err
			}
			// Divert (1 - 1/factor) of the spindle: factor 4 leaves the
			// request stream a quarter of the bandwidth. Overlapping
			// windows nest: the throttle only clears when the last
			// active window ends.
			slowDisks[n]++
			n.M.Disk.SetThrottle(1 - 1/factor)
			c.S.DoAfter(d, "fault.slow-disk-end", func() {
				slowDisks[n]--
				if slowDisks[n] == 0 {
					n.M.Disk.SetThrottle(0)
				}
			})
			return nil
		},
		SlowSave: func(target, node string, factor float64, d sim.Time) error {
			n, err := c.faultNode(target, node)
			if err != nil {
				return err
			}
			hv := n.HV
			// Overlapping windows nest against the rates captured by the
			// first window, so the last window's end restores the true
			// originals — never a degraded intermediate.
			if slowSaves[hv] == nil {
				slowSaves[hv] = &savedRates{mem: hv.CopyRateMem, net: hv.CopyRateNet}
			}
			sr := slowSaves[hv]
			sr.count++
			hv.CopyRateMem = int64(float64(hv.CopyRateMem) / factor)
			hv.CopyRateNet = int64(float64(hv.CopyRateNet) / factor)
			c.S.DoAfter(d, "fault.slow-save-end", func() {
				sr.count--
				if sr.count == 0 {
					hv.CopyRateMem, hv.CopyRateNet = sr.mem, sr.net
					delete(slowSaves, hv)
				}
			})
			return nil
		},
	})
}

// savedRates remembers a hypervisor's un-degraded copy rates across
// nested slow_save windows.
type savedRates struct {
	mem, net int64
	count    int
}

// faultNode resolves a fault injection's target node.
func (c *Cluster) faultNode(target, node string) (*emulab.ExpNode, error) {
	sess := c.byName[target]
	if sess == nil || sess.Exp == nil {
		return nil, fmt.Errorf("emucheck: %q not in service", target)
	}
	n := sess.Exp.Node(node)
	if n == nil {
		return nil, fmt.Errorf("emucheck: no node %q in %q", node, target)
	}
	return n, nil
}
