// Package sched implements a preemptive swap scheduler for the shared
// testbed — the facility-level use case stateful swapping exists for
// (paper §2, §5): Emulab is oversubscribed, most experiments are idle
// most of the time, and transparently swapping idle experiments out
// lets many experiments time-share one hardware pool.
//
// The scheduler admits experiments against a finite pool. When the
// queue head does not fit, it selects running victims by policy,
// statefully swaps them out (releasing their hardware), and admits the
// queued experiment. Preempted experiments re-join the queue and are
// resumed — with the whole interruption concealed from them by the
// checkpoint machinery — once capacity frees up.
//
// The scheduler is mechanism-agnostic: admission, parking, and resume
// are callbacks supplied by the hosting layer (the emucheck Cluster),
// which charge realistic swap costs through the shared control LAN.
//
// The hot path is built to survive oversubscription at 1k–10k tenants
// (see docs/scale.md): job lookup is a name index, the admission queue
// is an intrusive list with O(1) removal, preemption candidates live
// in a running-set index selected through a deterministic min-heap,
// and one kick admits a whole head-run in a single queue walk.
// Everything stays deterministic: decisions happen at well-defined
// simulation instants, ordering flows from strict total orders over
// (policy cost, admission time, submit index), and no map is iterated.
package sched

import (
	"fmt"
	"time"

	"emucheck/internal/sim"
)

// Policy selects the preemption victim.
type Policy int

// Victim-selection policies.
const (
	// FIFO preempts the earliest-admitted experiment — round-robin
	// time-sharing under contention.
	FIFO Policy = iota
	// IdleFirst preempts the experiment idle the longest, the paper's
	// motivating case: idle experiments should not hold hardware.
	IdleFirst
	// Priority preempts the lowest-priority experiment, and only for a
	// strictly higher-priority arrival.
	Priority
)

// String names the policy as scenario files spell it.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case IdleFirst:
		return "idle-first"
	case Priority:
		return "priority"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy maps a policy name to its value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fifo", "":
		return FIFO, nil
	case "idle-first", "idlefirst":
		return IdleFirst, nil
	case "priority":
		return Priority, nil
	}
	return 0, fmt.Errorf("sched: unknown policy %q", s)
}

// State is a job's lifecycle position.
type State int

// Job states.
const (
	Queued State = iota
	Starting
	Running
	Parking
	Parked
	Resuming
	Done
	// Crashed jobs fail-stopped (Fail): they hold no hardware and sit
	// out of the queue until Recover re-queues them.
	Crashed
)

// String names the state as reports and assertions spell it.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Starting:
		return "starting"
	case Running:
		return "running"
	case Parking:
		return "parking"
	case Parked:
		return "parked"
	case Resuming:
		return "resuming"
	case Done:
		return "done"
	case Crashed:
		return "crashed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Hooks are the mechanism callbacks the hosting layer supplies. Each is
// asynchronous: it begins the operation and must call done when the
// operation completes (possibly much later in simulated time), passing
// nil on success or the failure that stopped it — hook failures are
// scheduler events (a park that aborts returns the job to service; a
// start that cannot instantiate retires the job), never panics.
type Hooks struct {
	// Start instantiates the experiment on freshly allocated hardware
	// (first admission: testbed swap-in, boot, workload setup).
	Start func(done func(err error))
	// Park statefully swaps the experiment out and releases its
	// hardware; done fires once the pool has the nodes back — or with
	// the error that aborted the swap-out, in which case the job keeps
	// its hardware and returns to Running.
	Park func(done func(err error))
	// Resume re-acquires hardware and statefully swaps the experiment
	// back in; done fires when the experiment is running again.
	Resume func(done func(err error))
	// ParkCost, if set, estimates the bytes a stateful park would move
	// right now — proportional to state dirtied since the last resident
	// checkpoint under incremental swapping. The scheduler uses it to
	// break victim-selection ties toward the cheapest preemption and to
	// account the transfer cost of its decisions (PreemptedBytes).
	// It must be pure: evaluating it may happen a different number of
	// times per decision depending on policy.
	ParkCost func() int64
}

// Job is one experiment under scheduler control.
type Job struct {
	Name string
	// Need is the job's hardware demand (nodes + delay nodes).
	Need int
	// Priority orders jobs under the Priority policy; larger is more
	// important.
	Priority int
	// Preemptible marks jobs whose state survives a stateful swap-out
	// (every node swappable). Non-preemptible jobs hold their hardware
	// until they finish.
	Preemptible bool
	Hooks       Hooks

	state        State
	gang         int // nonzero: co-scheduled batch id (first admission only)
	submitted    sim.Time
	admittedAt   sim.Time // most recent admission decision
	runningSince sim.Time // most recent entry into service
	lastActive   sim.Time
	queuedSince  sim.Time
	queuedWait   sim.Time
	preemptions  int
	admissions   int
	lastParkCost int64
	// autoResume re-queues the job after a park. Preemptions set it;
	// voluntary parks clear it until Unpark.
	autoResume bool

	// idx is the job's stable submit index — the final victim-selection
	// tie-break, standing in for the submit-order traversal the legacy
	// linear scan got its stability from.
	idx int
	// qprev/qnext/inQueue are the intrusive admission-queue links.
	qprev, qnext *Job
	inQueue      bool
	// runIdx is the job's slot in the preemption-candidate index, -1
	// when not running (or not preemptible).
	runIdx int

	sched    *Scheduler  // set at Submit
	onParked func(error) // parked, bound at the first park
}

// State reports the job's lifecycle position.
func (j *Job) State() State { return j.state }

// QueueWait reports total time spent waiting for admission, including
// the wait still in progress if the job is queued right now — a
// starving job must not report zero.
func (j *Job) QueueWait() sim.Time {
	w := j.queuedWait
	if j.state == Queued && j.sched != nil {
		w += j.sched.S.Now() - j.queuedSince
	}
	return w
}

// Preemptions reports how often the job was involuntarily parked.
func (j *Job) Preemptions() int { return j.preemptions }

// RunningSince reports the job's most recent entry into service — the
// floor for lost-work accounting: nothing computed before it can be
// lost to a crash, because the preceding park committed everything.
func (j *Job) RunningSince() sim.Time { return j.runningSince }

// LastParkCost reports the estimated bytes moved by the job's most
// recent park (0 if never parked or no ParkCost hook).
func (j *Job) LastParkCost() int64 { return j.lastParkCost }

// parkCost evaluates the job's ParkCost hook (0 without one).
func (j *Job) parkCost() int64 {
	if j.Hooks.ParkCost == nil {
		return 0
	}
	return j.Hooks.ParkCost()
}

// Admissions reports how often the job was (re-)admitted.
func (j *Job) Admissions() int { return j.admissions }

// IdleFor reports time since the job last reported activity.
func (j *Job) IdleFor(now sim.Time) sim.Time { return now - j.lastActive }

// Scheduler admits experiments against the pool and preempts by policy.
type Scheduler struct {
	S        *sim.Simulator
	Capacity int
	Policy   Policy

	// MinResidency protects a freshly admitted job from immediate
	// re-preemption; without it two oversubscribed jobs would thrash.
	MinResidency sim.Time

	free          int
	cordoned      int             // nodes withdrawn from admission (suspect hardware)
	demand        int             // summed Need of live (unretired) jobs
	jobs          []*Job          // submit order
	byName        map[string]*Job // latest submission per name; lookup only, never iterated
	queue         jobQueue        // admission order (intrusive FIFO)
	candidates    []*Job          // running preemptible jobs (runIdx-indexed)
	victimHeap    victimHeap      // victim selection's scratch heap
	chosen        []*Job          // victim selection's scratch result
	doneJobs      int
	parksInFlight int
	nextGang      int

	// GangAdmissions counts gang batches admitted as a unit.
	GangAdmissions int

	// Failures counts jobs that fail-stopped (Fail); Recoveries counts
	// crashed jobs re-queued for restoration.
	Failures   int
	Recoveries int

	// Admissions and Preemptions count scheduler decisions; Drains
	// counts involuntary parks initiated through DrainFor (remediation
	// clearing room for a recovering tenant rather than the admission
	// path preempting for the queue head).
	Admissions  int
	Preemptions int
	Drains      int
	// PreemptedBytes sums the ParkCost estimates of every involuntary
	// park — the transfer bill of the scheduler's victim choices, which
	// incremental swapping makes proportional to dirtied state.
	PreemptedBytes int64

	// Instrument enables wall-clock accounting of decision work: with
	// it set, DecisionNanos accumulates the real time spent inside kick
	// (admission scanning, victim selection, preemption dispatch) and
	// Kicks counts invocations. Purely observational — it never feeds
	// back into scheduling, so determinism is unaffected.
	Instrument    bool
	DecisionNanos int64
	Kicks         uint64
	kickDepth     int

	t0       sim.Time
	utilAcc  float64 // node-nanoseconds of allocated hardware
	utilLast sim.Time
	wake     *sim.Timer
}

// New creates a scheduler over capacity pool nodes.
func New(s *sim.Simulator, capacity int, policy Policy) *Scheduler {
	return &Scheduler{
		S: s, Capacity: capacity, Policy: policy,
		MinResidency: 10 * sim.Second,
		free:         capacity,
		byName:       make(map[string]*Job),
		t0:           s.Now(), utilLast: s.Now(),
	}
}

// Free reports currently unallocated pool nodes.
func (d *Scheduler) Free() int { return d.free }

// CordonedNodes reports how many pool nodes are currently withdrawn
// from admission.
func (d *Scheduler) CordonedNodes() int { return d.cordoned }

// avail reports the nodes admission may actually hand out: free pool
// capacity minus the cordon line. Cordoned nodes are free (nothing runs
// on suspect hardware) but unschedulable, so oversubscription can push
// this below zero transiently — callers treat that as zero headroom.
func (d *Scheduler) avail() int {
	a := d.free - d.cordoned
	if a < 0 {
		return 0
	}
	return a
}

// Cordon withdraws n nodes from admission — suspect hardware leaving
// the schedulable pool after a failure, pending probation. Cordoned
// nodes still count as capacity (utilization is unchanged); they are
// simply never handed to the queue until Uncordon returns them.
func (d *Scheduler) Cordon(n int) error {
	if n <= 0 {
		return fmt.Errorf("sched: cordon of %d nodes", n)
	}
	if d.cordoned+n > d.Capacity {
		return fmt.Errorf("sched: cordon of %d nodes exceeds capacity (cordoned %d of %d)",
			n, d.cordoned, d.Capacity)
	}
	d.cordoned += n
	return nil
}

// Uncordon returns previously cordoned nodes to the schedulable pool
// and lets the queue use them.
func (d *Scheduler) Uncordon(n int) error {
	if n <= 0 || n > d.cordoned {
		return fmt.Errorf("sched: uncordon of %d nodes, %d cordoned", n, d.cordoned)
	}
	d.cordoned -= n
	d.kick()
	return nil
}

// Demand reports the summed hardware demand of every live (unretired)
// job — queued, running, parked or crashed. It is the federation's
// global-admission load signal: a pure function of the submission and
// retirement history, independent of transient scheduling state, so
// least-loaded placement across facilities stays deterministic.
func (d *Scheduler) Demand() int { return d.demand }

// Reserve charges n nodes allocated outside job control (experiments
// admitted directly, bypassing the queue), so the scheduler's capacity
// ledger matches the testbed's.
func (d *Scheduler) Reserve(n int) error {
	if n < 0 || n > d.avail() {
		return fmt.Errorf("sched: cannot reserve %d nodes, %d free", n, d.avail())
	}
	d.setFree(d.free - n)
	return nil
}

// Release returns nodes previously charged with Reserve and lets the
// queue use them.
func (d *Scheduler) Release(n int) {
	if n <= 0 {
		return
	}
	f := d.free + n
	if f > d.Capacity {
		f = d.Capacity
	}
	d.setFree(f)
	d.kick()
}

// Job returns a job by name (nil if unknown). A finished job's name
// may be reused; the most recent submission wins.
func (d *Scheduler) Job(name string) *Job { return d.byName[name] }

// Jobs returns every submitted job in submit order.
func (d *Scheduler) Jobs() []*Job { return d.jobs }

// QueueLen reports how many jobs are awaiting admission.
func (d *Scheduler) QueueLen() int { return d.queue.len() }

// Utilization reports the time-averaged fraction of the pool allocated
// since the scheduler was created.
func (d *Scheduler) Utilization() float64 {
	elapsed := d.S.Now() - d.t0
	if elapsed <= 0 || d.Capacity == 0 {
		return 0
	}
	acc := d.utilAcc + float64(d.Capacity-d.free)*float64(d.S.Now()-d.utilLast)
	return acc / (float64(d.Capacity) * float64(elapsed))
}

// MeanQueueWait averages accumulated admission waits across jobs.
func (d *Scheduler) MeanQueueWait() sim.Time {
	if len(d.jobs) == 0 {
		return 0
	}
	var sum sim.Time
	for _, j := range d.jobs {
		sum += j.QueueWait()
	}
	return sum / sim.Time(len(d.jobs))
}

// setFree adjusts the allocation level, integrating utilization.
func (d *Scheduler) setFree(f int) {
	now := d.S.Now()
	d.utilAcc += float64(d.Capacity-d.free) * float64(now-d.utilLast)
	d.utilLast = now
	d.free = f
}

// validate rejects jobs whose demand can never fit or whose name is
// already live.
func (d *Scheduler) validate(j *Job) error {
	if j.Need <= 0 {
		return fmt.Errorf("sched: job %q needs %d nodes", j.Name, j.Need)
	}
	if j.Need > d.Capacity {
		return fmt.Errorf("sched: job %q needs %d nodes, pool is %d", j.Name, j.Need, d.Capacity)
	}
	if prev := d.Job(j.Name); prev != nil && prev.state != Done {
		return fmt.Errorf("sched: duplicate job %q", j.Name)
	}
	return nil
}

// enroll registers a validated job in the queue.
func (d *Scheduler) enroll(j *Job) {
	now := d.S.Now()
	j.sched = d
	j.state = Queued
	j.submitted = now
	j.queuedSince = now
	j.lastActive = now
	j.autoResume = true
	j.idx = len(d.jobs)
	j.runIdx = -1
	d.demand += j.Need
	d.jobs = append(d.jobs, j)
	d.byName[j.Name] = j
	d.queue.pushBack(j)
}

// Submit queues a job for admission. Jobs whose demand can never fit
// are rejected outright.
func (d *Scheduler) Submit(j *Job) error {
	if err := d.validate(j); err != nil {
		return err
	}
	d.enroll(j)
	d.kick()
	return nil
}

// SubmitGang queues a batch of jobs for co-scheduled admission: the
// whole gang is admitted together once (and only once) the pool can
// hold its combined demand — preempting victims for the total, not
// job by job — so a branch fan-out starts exploring in parallel
// instead of trickling through the FIFO one branch per service window.
// Co-scheduling covers the first admission; a member preempted later
// parks and resumes individually like any tenant.
func (d *Scheduler) SubmitGang(jobs []*Job) error {
	if len(jobs) == 0 {
		return fmt.Errorf("sched: empty gang")
	}
	total := 0
	for _, j := range jobs {
		if err := d.validate(j); err != nil {
			return err
		}
		total += j.Need
	}
	if total > d.Capacity {
		return fmt.Errorf("sched: gang needs %d nodes, pool is %d", total, d.Capacity)
	}
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if seen[j.Name] {
			return fmt.Errorf("sched: duplicate job %q in gang", j.Name)
		}
		seen[j.Name] = true
	}
	d.nextGang++
	for _, j := range jobs {
		j.gang = d.nextGang
		d.enroll(j)
	}
	d.kick()
	return nil
}

// Touch records activity for the job its caller holds — the signal
// IdleFirst preempts on the absence of, and at 10k tenants the most
// called entry point. A nil job is ignored; a job out of service is
// never a victim candidate, so touching one is harmless.
func (d *Scheduler) Touch(j *Job) {
	if j != nil {
		j.lastActive = d.S.Now()
	}
}

// Park voluntarily swaps a running job out; it stays parked (holding no
// hardware) until Unpark.
func (d *Scheduler) Park(name string) error {
	j := d.Job(name)
	if j == nil {
		return fmt.Errorf("sched: no job %q", name)
	}
	if j.state != Running {
		return fmt.Errorf("sched: job %q is %v, not running", name, j.state)
	}
	if j.Hooks.Park == nil {
		return fmt.Errorf("sched: job %q cannot be parked", name)
	}
	j.autoResume = false
	// A voluntary park still bills the job's transfer cost, but not the
	// scheduler's PreemptedBytes ledger — that tracks its own decisions.
	j.lastParkCost = j.parkCost()
	d.park(j)
	return nil
}

// Unpark re-queues a parked job for admission.
func (d *Scheduler) Unpark(name string) error {
	j := d.Job(name)
	if j == nil {
		return fmt.Errorf("sched: no job %q", name)
	}
	if j.state != Parked {
		return fmt.Errorf("sched: job %q is %v, not parked", name, j.state)
	}
	j.autoResume = true
	d.enqueue(j)
	d.kick()
	return nil
}

// Fail records a job's crash: whatever hardware it holds returns to
// the pool and the job leaves service until Recover re-queues it (or
// Finish retires it). A job crashed mid-park (a HoldResume swap-out
// whose epoch will never complete) releases its hardware here too — a
// crash must never leak pool nodes.
func (d *Scheduler) Fail(name string) error {
	j := d.Job(name)
	if j == nil {
		return fmt.Errorf("sched: no job %q", name)
	}
	switch j.state {
	case Running:
		d.untrackRun(j)
		d.setFree(d.free + j.Need)
	case Parking:
		// The in-flight park will never call done; settle its ledger.
		d.parksInFlight--
		d.setFree(d.free + j.Need)
	case Parked:
		// No hardware held; the crash only loses un-committed progress.
	case Queued:
		d.dequeue(j)
	default:
		return fmt.Errorf("sched: job %q is %v, cannot fail", name, j.state)
	}
	j.state = Crashed
	j.gang = 0
	d.Failures++
	d.kick()
	return nil
}

// Recover re-queues a crashed job for admission; its Resume hook runs
// on re-admission, where the hosting layer restores the experiment
// from its last committed checkpoint epoch (or re-instantiates it from
// scratch, for the stateless baseline).
func (d *Scheduler) Recover(name string) error {
	j := d.Job(name)
	if j == nil {
		return fmt.Errorf("sched: no job %q", name)
	}
	if j.state != Crashed {
		return fmt.Errorf("sched: job %q is %v, not crashed", name, j.state)
	}
	j.autoResume = true
	d.Recoveries++
	d.enqueue(j)
	d.kick()
	return nil
}

// DrainFor parks (through the normal swap-out path) enough running
// victims, chosen in policy order, that the named queued or crashed job
// could be admitted once their parks complete. It is the remediation
// controller's proactive path: instead of waiting for the job to reach
// the queue head and preempt, the drain starts freeing capacity the
// moment a failure is detected. Drained jobs re-queue and resume like
// any preempted tenant. Returns how many victims were drained; zero
// when capacity already suffices, parks are in flight, or residency
// protection leaves no mature victim set that covers the shortfall.
func (d *Scheduler) DrainFor(name string) (int, error) {
	j := d.Job(name)
	if j == nil {
		return 0, fmt.Errorf("sched: no job %q", name)
	}
	if j.state != Queued && j.state != Crashed {
		return 0, fmt.Errorf("sched: job %q is %v, not awaiting admission", name, j.state)
	}
	shortfall := j.Need - d.avail()
	if shortfall <= 0 || d.parksInFlight > 0 {
		return 0, nil
	}
	chosen, ok := d.selectVictims(j, shortfall)
	if !ok {
		d.chosen = chosen[:0]
		return 0, nil
	}
	for _, v := range chosen {
		d.Drains++
		cost := v.parkCost()
		v.lastParkCost = cost
		d.PreemptedBytes += cost
		d.park(v)
	}
	d.chosen = chosen[:0]
	return len(chosen), nil
}

// Finish retires a job, releasing its hardware if it holds any.
func (d *Scheduler) Finish(name string) error {
	j := d.Job(name)
	if j == nil {
		return fmt.Errorf("sched: no job %q", name)
	}
	switch j.state {
	case Running:
		d.untrackRun(j)
		d.setFree(d.free + j.Need)
	case Parked, Crashed:
		// No hardware held.
	case Queued:
		d.dequeue(j)
	default:
		return fmt.Errorf("sched: job %q is %v, cannot finish", name, j.state)
	}
	d.retire(j)
	d.kick()
	return nil
}

// retire moves a job to Done, keeping the all-done counter current.
func (d *Scheduler) retire(j *Job) {
	j.state = Done
	d.demand -= j.Need
	d.doneJobs++
}

// AllDone reports whether every submitted job has finished. O(1): the
// evaluation drivers poll it every few simulated seconds.
func (d *Scheduler) AllDone() bool {
	return len(d.jobs) > 0 && d.doneJobs == len(d.jobs)
}

func (d *Scheduler) enqueue(j *Job) {
	j.state = Queued
	j.queuedSince = d.S.Now()
	d.queue.pushBack(j)
}

// dequeue removes a queued job from the admission queue and settles
// the wait it accumulated — the one shared exit path for admission,
// failure, and retirement of queued jobs (Fail and Finish used to
// carry copy-pasted O(n) splice loops here).
func (d *Scheduler) dequeue(j *Job) {
	d.queue.remove(j)
	j.queuedWait += d.S.Now() - j.queuedSince
}

// kick admits as much of the queue head as capacity allows, preempting
// by policy when it does not fit. A gang at the head is sized and
// admitted as a unit: all members or none. The whole admissible
// head-run is discovered in one queue walk per round — admitting a
// batch never re-scans what it already measured.
func (d *Scheduler) kick() {
	if d.Instrument {
		d.Kicks++
		d.kickDepth++
		if d.kickDepth == 1 {
			start := time.Now()
			defer func() {
				d.kickDepth--
				d.DecisionNanos += int64(time.Since(start))
			}()
		} else {
			defer func() { d.kickDepth-- }()
		}
	}
	for d.queue.len() > 0 {
		head := d.queue.front()
		members, need := 1, head.Need
		if head.gang != 0 {
			// Gang members are enqueued contiguously and lose their gang
			// tag if individually re-queued, so the leading run is the
			// whole co-scheduling unit.
			for q := head.qnext; q != nil && q.gang == head.gang; q = q.qnext {
				members++
				need += q.Need
			}
		}
		if d.avail() >= need {
			if members > 1 {
				d.GangAdmissions++
			}
			for i := 0; i < members; i++ {
				d.admit(d.queue.front())
			}
			continue
		}
		// Head-of-line blocking is deliberate: FIFO admission order is
		// part of the facility's fairness contract.
		if d.parksInFlight == 0 {
			d.tryPreempt(head, need)
		}
		return
	}
}

func (d *Scheduler) admit(j *Job) {
	now := d.S.Now()
	d.dequeue(j)
	d.setFree(d.free - j.Need)
	j.admittedAt = now
	j.lastActive = now
	j.admissions++
	d.Admissions++
	live := func(err error) {
		if err != nil {
			// The instantiation or restore failed: give the hardware
			// back. A first admission that cannot instantiate never
			// will, so the job retires; a failed resume parks the job
			// (state preserved on the file server) for another attempt.
			d.setFree(d.free + j.Need)
			if j.state == Starting {
				d.retire(j)
			} else {
				j.state = Parked
				j.autoResume = false
			}
			d.kick()
			return
		}
		j.state = Running
		j.runningSince = d.S.Now()
		j.lastActive = d.S.Now()
		d.trackRun(j)
		// A job entering service may be the missing preemption victim
		// for the queue head (once its residency matures).
		d.kick()
	}
	if j.admissions > 1 {
		j.state = Resuming
		j.Hooks.Resume(live)
		return
	}
	j.state = Starting
	j.Hooks.Start(live)
}

func (d *Scheduler) tryPreempt(head *Job, need int) {
	chosen, ok := d.selectVictims(head, need-d.avail())
	if ok {
		for _, v := range chosen {
			v.preemptions++
			d.Preemptions++
			cost := v.parkCost()
			v.lastParkCost = cost
			d.PreemptedBytes += cost
			d.park(v)
		}
	}
	d.chosen = chosen[:0]
}

func (d *Scheduler) park(v *Job) {
	d.untrackRun(v)
	v.state = Parking
	v.gang = 0 // co-scheduling covers the first admission only
	d.parksInFlight++
	if v.onParked == nil {
		v.onParked = v.parked
	}
	v.Hooks.Park(v.onParked)
}

// parked settles a park's outcome. It is bound once per job, as
// onParked, so a park allocates no callback.
func (v *Job) parked(err error) {
	d := v.sched
	if v.state != Parking {
		// A crash (Fail) superseded this park and settled its ledger.
		return
	}
	d.parksInFlight--
	if err != nil {
		// The swap-out aborted (an epoch failure): the experiment
		// was thawed and keeps running on its hardware. Restart the
		// residency clock so the next preemption attempt does not
		// re-freeze it immediately.
		v.state = Running
		v.runningSince = d.S.Now()
		d.trackRun(v)
		d.kick()
		return
	}
	v.state = Parked
	d.setFree(d.free + v.Need)
	if v.autoResume {
		d.enqueue(v)
	}
	d.kick()
}

// wakeAt arms the residency-maturity alarm, reusing one timer
// allocation across the scheduler's lifetime.
func (d *Scheduler) wakeAt(t sim.Time) {
	if d.wake == nil {
		d.wake = d.S.NewTimer("sched.wake", func() { d.kick() })
	}
	if d.wake.Pending() && d.wake.When() <= t {
		return
	}
	d.wake.Schedule(t)
}
