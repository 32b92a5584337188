package sched

// The legacy-oracle equivalence test: a test-only copy of the
// scheduler's pre-index algorithms (slice admission queue with O(n)
// splices, full-job-table victim scan with a stable insertion sort)
// driven in lockstep with the real indexed scheduler over randomized
// seeded workloads. The indexed structures exist purely for speed —
// every decision (admission order, victim choice, preemption count,
// queue-wait accounting) must be identical to the legacy scan, and
// this test fails on the first divergence in the hook-invocation
// trace.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"emucheck/internal/sim"
)

// ---------------------------------------------------------------------
// Oracle: the scheduler exactly as it was before the indexed hot path.
// ---------------------------------------------------------------------

type oracleJob struct {
	name        string
	need, pri   int
	preemptible bool
	hooks       Hooks

	state        State
	gang         int
	admittedAt   sim.Time
	runningSince sim.Time
	lastActive   sim.Time
	queuedSince  sim.Time
	queuedWait   sim.Time
	preemptions  int
	admissions   int
	lastParkCost int64
	autoResume   bool
}

func (j *oracleJob) parkCost() int64 {
	if j.hooks.ParkCost == nil {
		return 0
	}
	return j.hooks.ParkCost()
}

type oracleScheduler struct {
	s            *sim.Simulator
	capacity     int
	policy       Policy
	minResidency sim.Time

	free          int
	jobs          []*oracleJob
	queue         []*oracleJob
	parksInFlight int
	nextGang      int

	gangAdmissions int
	admissionsN    int
	preemptionsN   int
	preemptedBytes int64

	wake *sim.Event
}

func newOracle(s *sim.Simulator, capacity int, policy Policy) *oracleScheduler {
	return &oracleScheduler{
		s: s, capacity: capacity, policy: policy,
		minResidency: 10 * sim.Second,
		free:         capacity,
	}
}

func (d *oracleScheduler) job(name string) *oracleJob {
	for i := len(d.jobs) - 1; i >= 0; i-- {
		if d.jobs[i].name == name {
			return d.jobs[i]
		}
	}
	return nil
}

func (d *oracleScheduler) enroll(j *oracleJob) {
	now := d.s.Now()
	j.state = Queued
	j.queuedSince = now
	j.lastActive = now
	j.autoResume = true
	d.jobs = append(d.jobs, j)
	d.queue = append(d.queue, j)
}

func (d *oracleScheduler) submit(j *oracleJob) {
	d.enroll(j)
	d.kick()
}

func (d *oracleScheduler) submitGang(jobs []*oracleJob) {
	d.nextGang++
	for _, j := range jobs {
		j.gang = d.nextGang
		d.enroll(j)
	}
	d.kick()
}

func (d *oracleScheduler) touch(name string) {
	if j := d.job(name); j != nil {
		j.lastActive = d.s.Now()
	}
}

func (d *oracleScheduler) parkVoluntary(name string) error {
	j := d.job(name)
	if j == nil || j.state != Running || j.hooks.Park == nil {
		return fmt.Errorf("oracle: cannot park %q", name)
	}
	j.autoResume = false
	j.lastParkCost = j.parkCost()
	d.park(j)
	return nil
}

func (d *oracleScheduler) unpark(name string) error {
	j := d.job(name)
	if j == nil || j.state != Parked {
		return fmt.Errorf("oracle: cannot unpark %q", name)
	}
	j.autoResume = true
	d.enqueue(j)
	d.kick()
	return nil
}

func (d *oracleScheduler) finish(name string) error {
	j := d.job(name)
	if j == nil {
		return fmt.Errorf("oracle: no job %q", name)
	}
	switch j.state {
	case Running:
		d.free += j.need
	case Parked:
	case Queued:
		for i, q := range d.queue {
			if q == j {
				d.queue = append(d.queue[:i], d.queue[i+1:]...)
				break
			}
		}
		j.queuedWait += d.s.Now() - j.queuedSince
	default:
		return fmt.Errorf("oracle: job %q is %v, cannot finish", name, j.state)
	}
	j.state = Done
	d.kick()
	return nil
}

func (d *oracleScheduler) allDone() bool {
	for _, j := range d.jobs {
		if j.state != Done {
			return false
		}
	}
	return len(d.jobs) > 0
}

func (d *oracleScheduler) enqueue(j *oracleJob) {
	j.state = Queued
	j.queuedSince = d.s.Now()
	d.queue = append(d.queue, j)
}

func (d *oracleScheduler) kick() {
	for len(d.queue) > 0 {
		head := d.queue[0]
		members, need := 1, head.need
		if head.gang != 0 {
			for _, q := range d.queue[1:] {
				if q.gang != head.gang {
					break
				}
				members++
				need += q.need
			}
		}
		if d.free >= need {
			if members > 1 {
				d.gangAdmissions++
			}
			for i := 0; i < members; i++ {
				d.admit(d.queue[0])
			}
			continue
		}
		if d.parksInFlight == 0 {
			d.tryPreempt(head, need)
		}
		return
	}
}

func (d *oracleScheduler) admit(j *oracleJob) {
	now := d.s.Now()
	d.queue = d.queue[1:]
	j.queuedWait += now - j.queuedSince
	d.free -= j.need
	j.admittedAt = now
	j.lastActive = now
	j.admissions++
	d.admissionsN++
	live := func(err error) {
		if err != nil {
			d.free += j.need
			if j.state == Starting {
				j.state = Done
			} else {
				j.state = Parked
				j.autoResume = false
			}
			d.kick()
			return
		}
		j.state = Running
		j.runningSince = d.s.Now()
		j.lastActive = d.s.Now()
		d.kick()
	}
	if j.admissions > 1 {
		j.state = Resuming
		j.hooks.Resume(live)
		return
	}
	j.state = Starting
	j.hooks.Start(live)
}

// victims is the legacy linear scan: every submitted job filtered, in
// submit order, then stable-insertion-sorted by policy.
func (d *oracleScheduler) victims(candidate *oracleJob) (pool []*oracleJob, nextEligible sim.Time) {
	now := d.s.Now()
	nextEligible = sim.Never
	for _, j := range d.jobs {
		if j.state != Running || !j.preemptible || j.hooks.Park == nil {
			continue
		}
		if d.policy == Priority && j.pri >= candidate.pri {
			continue
		}
		if now-j.runningSince < d.minResidency {
			if t := j.runningSince + d.minResidency; t < nextEligible {
				nextEligible = t
			}
			continue
		}
		pool = append(pool, j)
	}
	less := func(a, b *oracleJob) bool {
		switch d.policy {
		case IdleFirst:
			if a.lastActive != b.lastActive {
				return a.lastActive < b.lastActive
			}
			if ca, cb := a.parkCost(), b.parkCost(); ca != cb {
				return ca < cb
			}
		case Priority:
			if a.pri != b.pri {
				return a.pri < b.pri
			}
		}
		return a.admittedAt < b.admittedAt
	}
	for i := 1; i < len(pool); i++ {
		for k := i; k > 0 && less(pool[k], pool[k-1]); k-- {
			pool[k], pool[k-1] = pool[k-1], pool[k]
		}
	}
	return pool, nextEligible
}

func (d *oracleScheduler) tryPreempt(head *oracleJob, need int) {
	shortfall := need - d.free
	pool, nextEligible := d.victims(head)
	var chosen []*oracleJob
	freed := 0
	for _, v := range pool {
		if freed >= shortfall {
			break
		}
		chosen = append(chosen, v)
		freed += v.need
	}
	if freed < shortfall {
		if nextEligible < sim.Never {
			d.wakeAt(nextEligible)
		}
		return
	}
	for _, v := range chosen {
		v.preemptions++
		d.preemptionsN++
		cost := v.parkCost()
		v.lastParkCost = cost
		d.preemptedBytes += cost
		d.park(v)
	}
}

func (d *oracleScheduler) park(v *oracleJob) {
	v.state = Parking
	v.gang = 0
	d.parksInFlight++
	v.hooks.Park(func(err error) {
		if v.state != Parking {
			return
		}
		d.parksInFlight--
		if err != nil {
			v.state = Running
			v.runningSince = d.s.Now()
			d.kick()
			return
		}
		v.state = Parked
		d.free += v.need
		if v.autoResume {
			d.enqueue(v)
		}
		d.kick()
	})
}

func (d *oracleScheduler) wakeAt(t sim.Time) {
	if d.wake != nil && d.wake.When() <= t && !d.wake.Cancelled() {
		return
	}
	if d.wake != nil {
		d.s.Cancel(d.wake)
	}
	d.wake = d.s.At(t, "sched.wake", func() {
		d.wake = nil
		d.kick()
	})
}

// ---------------------------------------------------------------------
// Adapter: one workload state machine drives either implementation.
// ---------------------------------------------------------------------

type fleetAPI interface {
	submit(r *eqRunner)
	submitGang(rs []*eqRunner)
	touch(r *eqRunner)
	park(name string) error
	unpark(name string) error
	finish(name string) error
	state(name string) State
	allDone() bool
	summary() string
}

// realFleet drives the indexed scheduler. Runners touch the job they
// hold, as the fleet's tenants do; byName instead resolves the name at
// every touch and stamps what it finds, as the by-name Touch did.
type realFleet struct {
	d       *Scheduler
	byName  bool
	noTouch bool // drop every touch: the control that shows touches matter
}

func (f *realFleet) job(r *eqRunner) *Job {
	r.job = &Job{Name: r.spec.name, Need: r.spec.need, Priority: r.spec.pri,
		Preemptible: r.spec.preemptible, Hooks: r.hooks()}
	return r.job
}
func (f *realFleet) submit(r *eqRunner) {
	if err := f.d.Submit(f.job(r)); err != nil {
		panic(err)
	}
}
func (f *realFleet) submitGang(rs []*eqRunner) {
	jobs := make([]*Job, len(rs))
	for i, r := range rs {
		jobs[i] = f.job(r)
	}
	if err := f.d.SubmitGang(jobs); err != nil {
		panic(err)
	}
}
func (f *realFleet) touch(r *eqRunner) {
	if f.noTouch {
		return
	}
	if f.byName {
		// The by-name touch as it was: resolve, then stamp.
		if j := f.d.Job(r.spec.name); j != nil {
			j.lastActive = f.d.S.Now()
		}
		return
	}
	f.d.Touch(r.job)
}
func (f *realFleet) park(name string) error   { return f.d.Park(name) }
func (f *realFleet) unpark(name string) error { return f.d.Unpark(name) }
func (f *realFleet) finish(name string) error { return f.d.Finish(name) }
func (f *realFleet) state(name string) State  { return f.d.Job(name).State() }
func (f *realFleet) allDone() bool            { return f.d.AllDone() }
func (f *realFleet) summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "adm=%d preempt=%d gangs=%d bytes=%d wait=%d util=%.9f\n",
		f.d.Admissions, f.d.Preemptions, f.d.GangAdmissions,
		f.d.PreemptedBytes, f.d.MeanQueueWait(), f.d.Utilization())
	for _, j := range f.d.Jobs() {
		fmt.Fprintf(&b, "%s state=%v adm=%d pre=%d wait=%d cost=%d\n",
			j.Name, j.State(), j.Admissions(), j.Preemptions(), j.QueueWait(), j.LastParkCost())
	}
	return b.String()
}

type oracleFleet struct{ d *oracleScheduler }

func (f *oracleFleet) job(r *eqRunner) *oracleJob {
	return &oracleJob{name: r.spec.name, need: r.spec.need, pri: r.spec.pri,
		preemptible: r.spec.preemptible, hooks: r.hooks()}
}
func (f *oracleFleet) submit(r *eqRunner) { f.d.submit(f.job(r)) }
func (f *oracleFleet) submitGang(rs []*eqRunner) {
	jobs := make([]*oracleJob, len(rs))
	for i, r := range rs {
		jobs[i] = f.job(r)
	}
	f.d.submitGang(jobs)
}
func (f *oracleFleet) touch(r *eqRunner)        { f.d.touch(r.spec.name) }
func (f *oracleFleet) park(name string) error   { return f.d.parkVoluntary(name) }
func (f *oracleFleet) unpark(name string) error { return f.d.unpark(name) }
func (f *oracleFleet) finish(name string) error { return f.d.finish(name) }
func (f *oracleFleet) state(name string) State  { return f.d.job(name).state }
func (f *oracleFleet) allDone() bool            { return f.d.allDone() }
func (f *oracleFleet) summary() string {
	var b strings.Builder
	var wait sim.Time
	for _, j := range f.d.jobs {
		w := j.queuedWait
		if j.state == Queued {
			w += f.d.s.Now() - j.queuedSince
		}
		wait += w
	}
	if len(f.d.jobs) > 0 {
		wait /= sim.Time(len(f.d.jobs))
	}
	// The oracle does not integrate utilization; print the decision
	// ledgers and per-job outcomes (the real side's util is implied by
	// identical decision sequences and is additionally covered by the
	// scale digest tests).
	fmt.Fprintf(&b, "adm=%d preempt=%d gangs=%d bytes=%d wait=%d\n",
		f.d.admissionsN, f.d.preemptionsN, f.d.gangAdmissions, f.d.preemptedBytes, wait)
	for _, j := range f.d.jobs {
		w := j.queuedWait
		if j.state == Queued {
			w += f.d.s.Now() - j.queuedSince
		}
		fmt.Fprintf(&b, "%s state=%v adm=%d pre=%d wait=%d cost=%d\n",
			j.name, j.state, j.admissions, j.preemptions, w, j.lastParkCost)
	}
	return b.String()
}

// eqSpec is one randomized tenant, drawn up front by the test's own
// RNG — the simulation itself consumes no randomness, so both
// implementations see a bit-identical stimulus.
type eqSpec struct {
	name        string
	need, pri   int
	preemptible bool
	hog         bool
	owed        int // hog: total ticks
	burstLen    int // bursty: ticks per burst
	cycles      int
	interval    sim.Time
	idleDur     sim.Time
	startD      sim.Time
	parkD       sim.Time
	resumeD     sim.Time
	costBase    int64
}

// eqRunner is the tenant state machine (mirroring the federation
// package's synthetic fleet): burst of activity ticks, then a voluntary park and an idle
// sleep, across cycles; hogs tick until their owed work is done.
type eqRunner struct {
	api   fleetAPI
	s     *sim.Simulator
	trace *[]string
	spec  eqSpec
	job   *Job // the indexed scheduler's job (realFleet only)

	timer      *sim.Timer
	ticks      int
	burstTicks int
	cycle      int
	sleeping   bool
}

func (r *eqRunner) log(ev string) {
	*r.trace = append(*r.trace, fmt.Sprintf("%d %s %s", r.s.Now(), ev, r.spec.name))
}

// hooks records each mechanism invocation at decision time — the trace
// the two implementations must agree on.
func (r *eqRunner) hooks() Hooks {
	h := Hooks{
		Start: func(done func(error)) {
			r.log("start")
			r.s.After(r.spec.startD, "eq.start", func() {
				done(nil)
				r.timer.Reset(r.spec.interval)
			})
		},
		ParkCost: func() int64 { return r.spec.costBase + int64(r.ticks)*4096 },
	}
	if r.spec.preemptible {
		h.Park = func(done func(error)) {
			r.log("park")
			r.s.After(r.spec.parkD, "eq.park", func() {
				r.timer.Stop()
				done(nil)
				if r.sleeping {
					r.timer.Reset(r.spec.idleDur)
				}
			})
		}
		h.Resume = func(done func(error)) {
			r.log("resume")
			r.s.After(r.spec.resumeD, "eq.resume", func() {
				done(nil)
				r.timer.Reset(r.spec.interval)
			})
		}
	}
	return h
}

func (r *eqRunner) fire() {
	if r.sleeping {
		r.sleeping = false
		if err := r.api.unpark(r.spec.name); err != nil {
			panic(err)
		}
		return
	}
	if r.api.state(r.spec.name) != Running {
		return
	}
	r.ticks++
	r.api.touch(r)
	if r.spec.hog {
		if r.ticks >= r.spec.owed {
			r.retire()
			return
		}
	} else {
		r.burstTicks++
		if r.burstTicks >= r.spec.burstLen {
			r.burstTicks = 0
			r.cycle++
			if r.cycle >= r.spec.cycles {
				r.retire()
				return
			}
			r.sleeping = true
			if err := r.api.park(r.spec.name); err != nil {
				panic(err)
			}
			return
		}
	}
	r.timer.Reset(r.spec.interval)
}

func (r *eqRunner) retire() {
	r.timer.Stop()
	r.log("finish")
	if err := r.api.finish(r.spec.name); err != nil {
		panic(err)
	}
}

// genSpecs draws a randomized tenant population. Non-preemptible
// tenants are always hogs (they cannot park); every sixth index starts
// a 3-tenant gang.
func genSpecs(seed int64, n int) []eqSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]eqSpec, n)
	for i := range specs {
		sp := eqSpec{
			name:        fmt.Sprintf("j%d", i),
			need:        1 + rng.Intn(3),
			pri:         rng.Intn(4),
			preemptible: rng.Intn(10) != 0,
			hog:         rng.Intn(5) == 0,
			owed:        60 + rng.Intn(120),
			burstLen:    10 + rng.Intn(20),
			cycles:      1 + rng.Intn(3),
			interval:    80*sim.Millisecond + sim.Time(i)*7*sim.Millisecond,
			idleDur:     3*sim.Second + sim.Time(rng.Intn(4000))*sim.Millisecond,
			startD:      1*sim.Second + sim.Time(rng.Intn(900))*sim.Millisecond,
			parkD:       500*sim.Millisecond + sim.Time(rng.Intn(700))*sim.Millisecond,
			resumeD:     800*sim.Millisecond + sim.Time(rng.Intn(900))*sim.Millisecond,
			costBase:    int64(1+rng.Intn(64)) << 20,
		}
		if !sp.preemptible {
			sp.hog = true
		}
		specs[i] = sp
	}
	return specs
}

// runEquivalence drives one implementation over the spec'd workload
// and returns the hook trace plus the final-state summary.
func runEquivalence(seed int64, policy Policy, specs []eqSpec, build func(*sim.Simulator) fleetAPI) ([]string, string) {
	s := sim.New(seed)
	api := build(s)
	var trace []string
	runners := make([]*eqRunner, len(specs))
	for i, sp := range specs {
		r := &eqRunner{api: api, s: s, trace: &trace, spec: sp}
		r.timer = s.NewTimer("eq.tick", r.fire)
		runners[i] = r
	}
	i := 0
	for i < len(runners) {
		if i%6 == 0 && i+3 <= len(runners) {
			api.submitGang(runners[i : i+3])
			i += 3
			continue
		}
		api.submit(runners[i])
		i++
	}
	for s.Now() < 15*sim.Minute && !api.allDone() {
		s.RunFor(5 * sim.Second)
	}
	return trace, api.summary()
}

// TestIndexedSchedulerMatchesLegacyOracle is the property test: for
// random seeded workloads across every policy (with gangs, voluntary
// parks, preemptions, and non-preemptible hogs in the mix), the
// indexed scheduler's hook-invocation trace — admission order, victim
// order, everything — must be identical to the legacy linear-scan
// oracle's, and so must the final per-job accounting.
func TestIndexedSchedulerMatchesLegacyOracle(t *testing.T) {
	for _, policy := range []Policy{FIFO, IdleFirst, Priority} {
		for _, seed := range []int64{1, 7, 42} {
			specs := genSpecs(seed, 17)
			capacity := 10 // >= the worst-case 3x3-need gang, still heavily contended
			gotTrace, gotSum := runEquivalence(seed, policy, specs, func(s *sim.Simulator) fleetAPI {
				d := New(s, capacity, policy)
				d.MinResidency = 5 * sim.Second
				return &realFleet{d: d}
			})
			wantTrace, wantSum := runEquivalence(seed, policy, specs, func(s *sim.Simulator) fleetAPI {
				o := newOracle(s, capacity, policy)
				o.minResidency = 5 * sim.Second
				return &oracleFleet{d: o}
			})
			if len(gotTrace) == 0 {
				t.Fatalf("%v seed %d: empty trace", policy, seed)
			}
			for i := 0; i < len(gotTrace) || i < len(wantTrace); i++ {
				g, w := "<end>", "<end>"
				if i < len(gotTrace) {
					g = gotTrace[i]
				}
				if i < len(wantTrace) {
					w = wantTrace[i]
				}
				if g != w {
					t.Fatalf("%v seed %d: trace diverges at %d:\nindexed: %s\noracle:  %s",
						policy, seed, i, g, w)
				}
			}
			// The summaries share every line except the real side's
			// trailing util field (the oracle does not integrate it).
			stripUtil := strings.SplitN(gotSum, " util=", 2)[0] + gotSum[strings.Index(gotSum, "\n"):]
			if stripUtil != wantSum {
				t.Fatalf("%v seed %d: final accounting diverged:\nindexed:\n%s\noracle:\n%s",
					policy, seed, gotSum, wantSum)
			}
		}
	}
}

// TestTouchByJobScheduleDigest holds the job-handle touch to the
// by-name touch it replaced: on the oracle workload, under every
// policy, runners that touch the job they hold and runners that
// resolve it by name at every tick produce the same hook trace and the
// same final accounting. At 30 tenants IdleFirst's victims depend on
// the touches — a control run that drops them diverges — so the
// comparison covers touch-driven victim choice, not just admission.
func TestTouchByJobScheduleDigest(t *testing.T) {
	sensitive := false
	for _, policy := range []Policy{FIFO, IdleFirst, Priority} {
		for _, n := range []int{17, 30} {
			for _, seed := range []int64{1, 7, 42} {
				specs := genSpecs(seed, n)
				run := func(f realFleet) string {
					trace, sum := runEquivalence(seed, policy, specs, func(s *sim.Simulator) fleetAPI {
						f.d = New(s, 10, policy)
						f.d.MinResidency = 5 * sim.Second
						return &f
					})
					return strings.Join(trace, "\n") + "\n" + sum
				}
				byJob, byName := run(realFleet{}), run(realFleet{byName: true})
				if byJob != byName {
					t.Fatalf("%v n=%d seed %d: by-job touch diverges from by-name touch:\nby job:\n%s\nby name:\n%s",
						policy, n, seed, byJob, byName)
				}
				if run(realFleet{noTouch: true}) != byJob {
					sensitive = true
				}
			}
		}
	}
	if !sensitive {
		t.Fatal("dropping every touch changed no run: touch-driven victim choice unexercised")
	}
}

// BenchmarkVictimSelection measures one victim-selection decision with
// n preemptible running jobs: the legacy full-table scan plus stable
// insertion sort against the indexed candidate set plus heap build.
// The docs/scale.md complexity table quotes these numbers.
func BenchmarkVictimSelection(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		setup := func() (*Scheduler, *oracleScheduler, *Job, *oracleJob) {
			s := sim.New(1)
			d := New(s, n+1, IdleFirst)
			d.MinResidency = 0
			o := newOracle(s, n+1, IdleFirst)
			o.minResidency = 0
			for i := 0; i < n; i++ {
				cost := int64(i%97) << 12
				hooks := Hooks{
					Start:    func(done func(error)) { done(nil) },
					Park:     func(done func(error)) { done(nil) },
					Resume:   func(done func(error)) { done(nil) },
					ParkCost: func() int64 { return cost },
				}
				j := &Job{Name: fmt.Sprintf("v%d", i), Need: 1, Preemptible: true, Hooks: hooks}
				if err := d.Submit(j); err != nil {
					b.Fatal(err)
				}
				o.submit(&oracleJob{name: j.Name, need: 1, preemptible: true, hooks: hooks})
			}
			s.Run()
			cand := &Job{Name: "cand", Need: 1}
			return d, o, cand, &oracleJob{name: "cand", need: 1}
		}
		d, o, cj, oj := setup()
		b.Run(fmt.Sprintf("legacy-scan/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o.victims(oj)
			}
		})
		b.Run(fmt.Sprintf("indexed-heap/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.victims(cj)
			}
		})
	}
}
