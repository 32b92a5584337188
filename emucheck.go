// Package emucheck is a library reproduction of "Transparent Checkpoints
// of Closed Distributed Systems in Emulab" (Burtsev et al., EuroSys
// 2009): a simulated Emulab testbed with transparent distributed
// checkpointing, stateful swapping, and time travel.
//
// The public API is organized around Sessions. A Scenario describes an
// experiment (its network spec and a workload-installing setup
// function); a Session instantiates it on a deterministic simulated
// testbed. Sessions can run, checkpoint transparently, swap out and
// back in statefully, and time-travel: because the substrate is
// bit-deterministic and checkpoints are transparent (virtual time hides
// them), rolling back to a recorded checkpoint is realized by
// re-executing a fresh session to the checkpoint's virtual time —
// optionally perturbed, which is the paper's non-deterministic replay
// "knob" (§6).
//
// A minimal use:
//
//	sc := emucheck.Scenario{
//	    Spec: emulab.Spec{
//	        Name:  "demo",
//	        Nodes: []emulab.NodeSpec{{Name: "a", Swappable: true}, {Name: "b", Swappable: true}},
//	        Links: []emulab.LinkSpec{{A: "a", B: "b", Bandwidth: 100 * simnet.Mbps, Delay: 5 * sim.Millisecond}},
//	    },
//	    Setup: func(e *emucheck.Session) { /* install workloads */ },
//	}
//	s := emucheck.NewSession(sc, 42)
//	s.RunFor(5 * sim.Second)
//	res, _ := s.Checkpoint()
//	fmt.Println(res.SuspendSkew)
package emucheck

import (
	"fmt"

	"emucheck/internal/core"
	"emucheck/internal/emulab"
	"emucheck/internal/guest"
	"emucheck/internal/sched"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
	"emucheck/internal/storage"
	"emucheck/internal/swap"
	"emucheck/internal/timetravel"
)

// Re-exported aliases so callers need only the public surface for the
// common cases. Sub-package types (emulab.Spec, core.Options, ...) are
// used directly where richer control is wanted.
type (
	// CheckpointResult is a completed distributed checkpoint.
	CheckpointResult = core.Result
	// CheckpointOptions tunes a checkpoint.
	CheckpointOptions = core.Options
	// Perturbation is the replay-divergence knob.
	Perturbation = timetravel.Perturbation
	// TreeNodeID names a node in the time-travel tree.
	TreeNodeID = timetravel.NodeID
)

// Perturbation kinds, re-exported.
const (
	Deterministic = timetravel.Deterministic
	SeedChange    = timetravel.SeedChange
	TimeDilation  = timetravel.TimeDilation
	PacketReorder = timetravel.PacketReorder
)

// Scenario is a replayable experiment description: everything needed to
// reconstruct the run from scratch, which is what makes time travel by
// re-execution possible.
type Scenario struct {
	Spec emulab.Spec
	// Pool is the testbed hardware pool size (default: nodes + links).
	Pool int
	// Setup installs workloads on the freshly swapped-in experiment.
	Setup func(s *Session)
}

// Session is one live execution of a scenario — one experiment hosted
// on a Cluster. NewSession builds a private one-tenant cluster (the
// classic single-experiment case); Cluster.Submit creates sessions that
// time-share a pool with other tenants under the swap scheduler.
type Session struct {
	Scenario Scenario
	Seed     int64
	// Priority orders tenants under the Priority preemption policy.
	Priority int

	// C is the hosting cluster (a private one for NewSession sessions).
	C   *Cluster
	S   *sim.Simulator
	TB  *emulab.Testbed
	Exp *emulab.Experiment // nil while queued or parked stateless

	// Tree records checkpoints for time travel.
	Tree *timetravel.Tree

	// RecordErr holds the most recent failure to record an async
	// checkpoint in the tree (e.g. budget exhausted); the synchronous
	// paths return such errors directly.
	RecordErr error

	// LastErr surfaces the most recent control-plane failure on this
	// session: an aborted checkpoint epoch, a failed park or restore, a
	// provisioning error. The control plane never panics on these — it
	// records them here (and in scenario results) and keeps running.
	LastErr error

	// Crash / recovery bookkeeping (scheduler-managed tenants).
	crashedAt      sim.Time
	recoveredAt    sim.Time
	recoveries     int
	lostWork       sim.Time
	pendingLost    sim.Time // lost work of the current crash, fixed at crash time
	recoverPending bool
	epochInterval  sim.Time // committed-epoch period (0: pipeline off)

	// Health-loop bookkeeping (EnableHealth clusters): failure
	// detections, worst detection latency and repair time, automatic
	// remediations, and the quarantine flag.
	detectedAt       sim.Time
	detections       int
	detectLatencyMax sim.Time
	mttrMax          sim.Time
	remediations     int
	quarantined      bool

	job     *sched.Job
	done    bool // finished standalone session (job-managed ones track state in job)
	perturb Perturbation
	branch  TreeNodeID

	// Branch genealogy (cluster fan-out): parentName names the tenant
	// this session was forked from, branch the fork checkpoint, alias
	// the logical-to-physical node-name map, and branchLineages the
	// forked per-node chains adopted at first admission.
	parentName     string
	children       []string
	alias          map[string]string
	branchLineages map[string]*storage.Lineage
}

// NewSession instantiates the scenario on a fresh deterministic testbed
// sized to fit it — a one-tenant cluster with immediate admission.
func NewSession(sc Scenario, seed int64) *Session {
	return newSession(sc, seed, Perturbation{}, timetravel.Root)
}

func newSession(sc Scenario, seed int64, p Perturbation, branch TreeNodeID) *Session {
	if p.Kind == SeedChange && p.Seed != 0 {
		seed = p.Seed
	}
	pool := sc.Pool
	if pool <= 0 {
		pool = len(sc.Spec.Nodes) + len(sc.Spec.Links) + 2
	}
	c := NewCluster(pool, seed, FIFO)
	sess := &Session{
		Scenario: sc, Seed: seed, C: c, S: c.S, TB: c.TB,
		Tree:    timetravel.NewTree(146 << 30),
		perturb: p, branch: branch,
	}
	sess.applyPerturbation()
	exp, err := c.TB.SwapIn(sc.Spec)
	if err != nil {
		panic("emucheck: " + err.Error())
	}
	c.wireTenant(sess, exp)
	// Charge the scheduler's ledger too, so a later Submit on this
	// cluster cannot over-admit against hardware the session holds.
	if err := c.Sched.Reserve(exp.Allocated()); err != nil {
		panic("emucheck: " + err.Error())
	}
	c.adopt(sess)
	sess.applyDilation()
	if sc.Setup != nil {
		sc.Setup(sess)
	}
	return sess
}

// State reports the session's scheduler state ("running", "queued",
// "parked", ...). Sessions outside scheduler control are "running".
func (s *Session) State() string {
	if s.job == nil {
		if s.done {
			return "done"
		}
		return "running"
	}
	return s.job.State().String()
}

// Touch records the tenant's activity, the signal IdleFirst preempts
// on the absence of; it does nothing outside scheduler control.
func (s *Session) Touch() { s.C.Sched.Touch(s.job) }

// Scheduled reports whether the session is under scheduler control
// (created by Cluster.Submit rather than NewSession).
func (s *Session) Scheduled() bool { return s.job != nil }

// QueueWait reports total time spent waiting for admission.
func (s *Session) QueueWait() sim.Time {
	if s.job == nil {
		return 0
	}
	return s.job.QueueWait()
}

// Preemptions reports how often the session was involuntarily parked.
func (s *Session) Preemptions() int {
	if s.job == nil {
		return 0
	}
	return s.job.Preemptions()
}

// Admissions reports how often the session was (re-)admitted.
func (s *Session) Admissions() int {
	if s.job == nil {
		return 1
	}
	return s.job.Admissions()
}

// Recoveries reports how often the session was restored from a
// committed checkpoint epoch after a crash — the genealogy's record
// that this incarnation is not the first.
func (s *Session) Recoveries() int { return s.recoveries }

// LostWork reports the cumulative work discarded by crash recoveries:
// for each crash, the gap between the crash and the last committed
// epoch the recovery restored, floored at the incarnation's entry
// into service — a tenant crashed while parked loses nothing (its
// park committed everything and nothing ran since). Restarts from
// scratch are not counted here — they lose everything, which the
// caller can see from Admissions and its own progress counters.
func (s *Session) LostWork() sim.Time { return s.lostWork }

// CrashedAt reports when the session last crashed (zero: never).
func (s *Session) CrashedAt() sim.Time { return s.crashedAt }

// Detections reports how often the health loop flagged this session
// unhealthy (zero without EnableHealth).
func (s *Session) Detections() int { return s.detections }

// DetectedAt reports when the detector last flagged the session
// unhealthy (zero: never).
func (s *Session) DetectedAt() sim.Time { return s.detectedAt }

// MaxDetectLatency reports the worst crash-to-detection gap the health
// loop recorded for this session — the failure-detection latency the
// scenario's max_detect_ms assertion bounds.
func (s *Session) MaxDetectLatency() sim.Time { return s.detectLatencyMax }

// MaxMTTR reports the worst crash-to-restored gap across this
// session's recoveries (mean time to repair, pessimized) — what the
// scenario's max_mttr_ms assertion bounds.
func (s *Session) MaxMTTR() sim.Time { return s.mttrMax }

// Remediations reports how many automatic recoveries the remediation
// controller initiated for this session (scripted Recover calls are
// counted in Recoveries but not here).
func (s *Session) Remediations() int { return s.remediations }

// Quarantined reports whether the remediation controller exhausted the
// session's budget and took it permanently out of service.
func (s *Session) Quarantined() bool { return s.quarantined }

// RecoveredAt reports when the session last finished a recovery
// (zero: never).
func (s *Session) RecoveredAt() sim.Time { return s.recoveredAt }

// EpochsAborted reports checkpoint epochs that aborted on this
// session's current coordinator (save failures, stragglers past the
// save deadline, crash-forced aborts). Zero before instantiation; a
// Restart replaces the coordinator and resets the count.
func (s *Session) EpochsAborted() int {
	if s.Exp == nil {
		return 0
	}
	return s.Exp.Coord.Aborted
}

// StartEpochs begins the committed-epoch pipeline on a swappable
// session: a transparent checkpoint every interval whose dirty state
// commits to the file-server lineages, keeping Cluster.Recover's
// restore point at most ~interval stale.
func (s *Session) StartEpochs(interval sim.Time) error {
	if s.Exp == nil {
		return fmt.Errorf("emucheck: experiment %q is %s, not instantiated", s.Scenario.Spec.Name, s.State())
	}
	if s.Exp.Swap == nil {
		return fmt.Errorf("emucheck: no swappable nodes in %q", s.Scenario.Spec.Name)
	}
	// Remembered so a crash recovery restarts the pipeline: the restore
	// point must keep refreshing on the recovered incarnation too.
	s.epochInterval = interval
	s.Exp.Swap.StartEpochs(interval)
	return nil
}

// applyPerturbation adjusts environment knobs before construction.
func (s *Session) applyPerturbation() {
	switch s.perturb.Kind {
	case PacketReorder:
		// Wider notification jitter perturbs cross-node event ordering.
		s.TB.Bus.JitterMax *= 4
	}
}

// applyDilation turns the §6 time-dilation knob on every guest clock
// after construction: with factor f, guests perceive machines and
// networks f-times faster (Gupta 2006). Timers inside the temporal
// firewall honor the dilated rate.
func (s *Session) applyDilation() {
	if s.perturb.Kind != TimeDilation {
		return
	}
	f := s.perturb.Magnitude
	if f <= 0 {
		f = 2
	}
	for _, n := range s.Exp.Nodes {
		n.K.Clock.SetDilation(f)
	}
}

// Kernel returns a node's guest kernel for workload installation. For
// branch sessions the parent's logical node names resolve through the
// branch's alias map, so a parent's workload closure installs unchanged.
func (s *Session) Kernel(node string) *guest.Kernel {
	if s.Exp == nil {
		panic(fmt.Sprintf("emucheck: experiment %q is %s, not instantiated", s.Scenario.Spec.Name, s.State()))
	}
	if phys, ok := s.alias[node]; ok {
		node = phys
	}
	n := s.Exp.Node(node)
	if n == nil {
		panic(fmt.Sprintf("emucheck: no node %q", node))
	}
	return n.K
}

// LiveLineages lists every checkpoint chain the session currently holds
// store references through: the per-node chains of its instantiated
// experiment, or the forked chains a branch stages until its first
// admission. Finished sessions hold none. The suite runner's refcount
// audit sums these against the chain store's entries.
func (s *Session) LiveLineages() []*storage.Lineage {
	var out []*storage.Lineage
	if s.Exp != nil && s.Exp.Swap != nil {
		for _, lin := range s.Exp.Swap.Lineages() {
			if !lin.Released() {
				out = append(out, lin)
			}
		}
		return out
	}
	for _, lin := range s.branchLineages {
		if !lin.Released() {
			out = append(out, lin)
		}
	}
	return out
}

// Addr resolves a (possibly logical) node name to its control-network
// address, so branch workloads address peers by the parent's names.
func (s *Session) Addr(node string) simnet.Addr {
	if phys, ok := s.alias[node]; ok {
		node = phys
	}
	return simnet.Addr(node)
}

// Parent names the tenant this session was branched from ("" for
// sessions that are not branches).
func (s *Session) Parent() string { return s.parentName }

// Children lists the branches forked from this session, in fork order.
func (s *Session) Children() []string { return append([]string(nil), s.children...) }

// IsBranch reports whether the session was created by Cluster.Branch.
func (s *Session) IsBranch() bool { return s.parentName != "" }

// BranchPoint reports the checkpoint the branch was forked from.
func (s *Session) BranchPoint() TreeNodeID { return s.branch }

// Perturb reports the perturbation the session runs under. Workloads
// may consult it (notably the SeedChange seed) to explore a different
// nondeterministic future per branch.
func (s *Session) Perturb() Perturbation { return s.perturb }

// RunFor advances the session by d of simulated real time.
func (s *Session) RunFor(d sim.Time) { s.S.RunFor(d) }

// RunUntilIdle drains every pending event.
func (s *Session) RunUntilIdle() { s.S.Run() }

// Now reports simulated real time.
func (s *Session) Now() sim.Time { return s.S.Now() }

// VirtualNow reports the named node's guest virtual time.
func (s *Session) VirtualNow(node string) sim.Time { return s.Kernel(node).Monotonic() }

// Checkpoint performs one transparent distributed checkpoint
// synchronously (the simulation advances until it completes) and
// records it in the time-travel tree.
func (s *Session) Checkpoint() (*CheckpointResult, error) {
	return s.CheckpointOpts(CheckpointOptions{Incremental: s.Tree.Len() > 1})
}

// CheckpointAsync initiates one transparent distributed checkpoint and
// returns immediately; done (optional) receives the committed result
// once every node has resumed — or the typed core.EpochError if the
// epoch aborted — and committed checkpoints are recorded in the
// time-travel tree. Use this from inside simulation events (e.g.
// scripted scenario actions), where the synchronous Checkpoint would
// re-enter the event loop.
func (s *Session) CheckpointAsync(o CheckpointOptions, done func(*CheckpointResult, error)) error {
	// A stateful-parked tenant keeps its Exp (state preserved on the
	// file server), so check scheduler state, not just instantiation.
	if s.Exp == nil || s.job != nil && s.job.State() != sched.Running {
		return fmt.Errorf("emucheck: experiment %q is %s", s.Scenario.Spec.Name, s.State())
	}
	first := s.Exp.Spec.Nodes[0].Name
	return s.Exp.Coord.Checkpoint(o, func(r *CheckpointResult, cerr error) {
		if cerr != nil {
			s.LastErr = cerr
			if done != nil {
				done(nil, cerr)
			}
			return
		}
		if _, err := s.Tree.Record(r, s.VirtualNow(first)); err != nil {
			s.RecordErr = err
		}
		if done != nil {
			done(r, nil)
		}
	})
}

// CheckpointOpts is Checkpoint with explicit options. Like
// CheckpointAsync it requires the experiment to be in service — a
// stateful-parked tenant still has an Exp, but its guests are frozen
// and the synchronous wait would spin the shared cluster simulator.
func (s *Session) CheckpointOpts(o CheckpointOptions) (*CheckpointResult, error) {
	if s.Exp == nil || s.job != nil && s.job.State() != sched.Running {
		return nil, fmt.Errorf("emucheck: experiment %q is %s", s.Scenario.Spec.Name, s.State())
	}
	res, err := await(s, "checkpoint", 10*sim.Minute, sim.Millisecond, func(done func(*CheckpointResult, error)) error {
		return s.Exp.Coord.Checkpoint(o, done)
	})
	if err != nil {
		return nil, err
	}
	first := s.Exp.Spec.Nodes[0].Name
	if _, err := s.Tree.Record(res, s.VirtualNow(first)); err != nil {
		return nil, err
	}
	return res, nil
}

// PeriodicCheckpoints checkpoints every interval until limit
// checkpoints complete (limit 0 = until StopCheckpoints); results are
// recorded in the tree as the run proceeds.
func (s *Session) PeriodicCheckpoints(interval sim.Time, limit int) *core.PeriodicCheckpointer {
	if s.Exp == nil {
		panic(fmt.Sprintf("emucheck: experiment %q is %s, not instantiated", s.Scenario.Spec.Name, s.State()))
	}
	first := s.Exp.Spec.Nodes[0].Name
	pc := &core.PeriodicCheckpointer{
		C:        s.Exp.Coord,
		Interval: interval,
		Opts:     CheckpointOptions{Incremental: true},
		OnResult: func(r *CheckpointResult) {
			s.Tree.Record(r, s.VirtualNow(first))
		},
	}
	pc.Start(limit)
	return pc
}

// SwapOut statefully swaps the experiment out (synchronously). It
// drives the session's private simulator, so it is only available on
// standalone sessions; scheduler-managed tenants park via Cluster.Park.
func (s *Session) SwapOut() ([]*swap.OutReport, error) {
	if s.job != nil {
		return nil, fmt.Errorf("emucheck: %q is scheduler-managed; use Cluster.Park", s.Scenario.Spec.Name)
	}
	if s.Exp.Swap == nil {
		return nil, fmt.Errorf("emucheck: no swappable nodes in %q", s.Scenario.Spec.Name)
	}
	return await(s, "swap-out", 2*sim.Hour, sim.Second, func(done func([]*swap.OutReport, error)) error {
		return s.Exp.Swap.SwapOut(swap.Options{}, done)
	})
}

// SwapIn statefully swaps the experiment back in (synchronously).
func (s *Session) SwapIn(lazy bool) ([]*swap.InReport, error) {
	if s.job != nil {
		return nil, fmt.Errorf("emucheck: %q is scheduler-managed; use Cluster.Unpark", s.Scenario.Spec.Name)
	}
	if s.Exp.Swap == nil {
		return nil, fmt.Errorf("emucheck: no swappable nodes")
	}
	return await(s, "swap-in", 2*sim.Hour, sim.Second, func(done func([]*swap.InReport, error)) error {
		return s.Exp.Swap.SwapIn(swap.Options{Eager: !lazy}, done)
	})
}

// await starts an asynchronous operation and steps the session's
// simulator until the operation reports back or timeout of simulated
// time passes; while no event is pending, time advances idle at a time.
// An error the operation reports is kept in LastErr; one that start
// returns is not.
func await[T any](s *Session, what string, timeout, idle sim.Time, start func(done func(T, error)) error) (T, error) {
	var res T
	var err error
	finished := false
	if e := start(func(r T, e error) { res, err, finished = r, e, true }); e != nil {
		return res, e
	}
	deadline := s.S.Now() + timeout
	for !finished && s.S.Now() < deadline {
		if !s.S.Step() {
			s.S.RunFor(idle)
		}
	}
	switch {
	case err != nil:
		s.LastErr = err
		return res, err
	case !finished:
		return res, fmt.Errorf("emucheck: %s did not complete", what)
	}
	return res, nil
}

// Rollback time-travels: it returns a *new* Session re-executed from
// scratch to the chosen checkpoint's virtual time, continuing under the
// given perturbation. With Deterministic the replay reproduces the
// original run exactly (same seed, same event stream); other kinds
// diverge — each rollback grows a new branch in the execution tree.
//
// Transparency is what makes this addressable by virtual time: because
// checkpoints never perturbed the original run, re-executing without
// them reaches the same state at the same virtual time.
func (s *Session) Rollback(id TreeNodeID, p Perturbation) (*Session, error) {
	if s.job != nil {
		// A tenant's history is interleaved with its neighbors'; replay
		// would have to re-execute the whole cluster.
		return nil, fmt.Errorf("emucheck: %q is scheduler-managed; time travel needs a standalone session", s.Scenario.Spec.Name)
	}
	plan, err := s.Tree.Rollback(id, p)
	if err != nil {
		return nil, err
	}
	replay := newSession(s.Scenario, s.Seed, plan.Perturb, id)
	// Re-execute to the checkpoint's virtual time. Virtual time equals
	// real time in a checkpoint-free replay (modulo the µs leak of the
	// original, which transparency bounds).
	replay.RunFor(plan.Target)
	replay.Tree = s.Tree
	replay.Tree.SetBranchPerturbation(p)
	return replay, nil
}
