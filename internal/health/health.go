// Package health implements the continuous failure-detection side of
// the autonomous remediation loop (ROADMAP item 2). A Monitor probes
// each watched tenant on a fixed period off the simulation clock and
// feeds consecutive probe outcomes through a hysteresis filter: a
// tenant is flagged unhealthy only after FailThreshold consecutive
// failed probes, and flagged healthy again only after RecoverThreshold
// consecutive successes — so a flapping tenant cannot thrash the
// remediation controller downstream.
//
// The monitor is mechanism-agnostic: what a "probe" actually touches is
// a callback supplied by the hosting layer (the emucheck Cluster probes
// the tenant's per-node hypervisors). Everything is driven by one
// re-armed timer per target off the sim clock with seeded phase
// stagger — zero wall-clock reads, so detection instants are
// byte-identical under the same seed.
package health

import (
	"fmt"

	"emucheck/internal/sim"
)

// ProbeStatus is one probe's outcome.
type ProbeStatus int

// Probe outcomes. Skip means the target was not probeable — parked or
// mid-swap tenants are frozen behind the checkpoint boundary, which is
// not evidence of failure — and leaves both hysteresis streaks as they
// were.
const (
	StatusOK ProbeStatus = iota
	StatusFail
	StatusSkip
)

// ProbeResult is a probe outcome plus the node that failed it (empty
// for tenant-level outcomes), so per-node evidence flows into verdicts.
type ProbeResult struct {
	Status ProbeStatus
	Node   string
}

// Policy is a failure-detection configuration.
type Policy struct {
	// ProbePeriod is the interval between successive probes of one
	// target.
	ProbePeriod sim.Time
	// FailThreshold is how many consecutive failed probes flag a target
	// unhealthy.
	FailThreshold int
	// RecoverThreshold is how many consecutive successful probes clear
	// a flagged target — the hysteresis that keeps flapping tenants
	// from generating verdict storms.
	RecoverThreshold int
}

// Named policy presets, ordered from aggressive to cautious: fast
// detects in two short periods (low latency, flap-sensitive),
// conservative waits out five long ones (high latency, flap-immune).
var presets = map[string]Policy{
	"fast":         {ProbePeriod: 250 * sim.Millisecond, FailThreshold: 2, RecoverThreshold: 2},
	"balanced":     {ProbePeriod: 500 * sim.Millisecond, FailThreshold: 3, RecoverThreshold: 2},
	"conservative": {ProbePeriod: sim.Second, FailThreshold: 5, RecoverThreshold: 3},
}

// ParsePolicy returns the named preset ("fast", "balanced",
// "conservative"; empty means balanced).
func ParsePolicy(name string) (Policy, error) {
	if name == "" {
		name = "balanced"
	}
	p, ok := presets[name]
	if !ok {
		return Policy{}, fmt.Errorf("health: unknown policy %q", name)
	}
	return p, nil
}

// withDefaults fills unset knobs from the balanced preset.
func (p Policy) withDefaults() Policy {
	def := presets["balanced"]
	if p.ProbePeriod <= 0 {
		p.ProbePeriod = def.ProbePeriod
	}
	if p.FailThreshold <= 0 {
		p.FailThreshold = def.FailThreshold
	}
	if p.RecoverThreshold <= 0 {
		p.RecoverThreshold = def.RecoverThreshold
	}
	return p
}

// Verdict is a detector state flip for one target.
type Verdict struct {
	Target  string
	Healthy bool
	// Node is the node whose probe evidence tipped the flip (empty for
	// tenant-level evidence).
	Node string
	At   sim.Time
	// Streak is the consecutive-outcome count that crossed the
	// threshold.
	Streak int
}

// target is the per-tenant detector state.
type target struct {
	name       string
	idx        int
	unhealthy  bool
	failStreak int
	okStreak   int
	stopped    bool
	// probe fires each probe and is re-armed by step; a stopped
	// target's pending probe still fires, and step ends the loop.
	probe sim.Timer

	probes     int
	fails      int
	detections int
}

// Monitor probes watched targets and emits verdicts on state flips.
type Monitor struct {
	S      *sim.Simulator
	Seed   int64
	Policy Policy

	// Probe is the mechanism callback: inspect the target right now and
	// report OK, Fail, or Skip. Required.
	Probe func(name string) ProbeResult
	// OnVerdict fires on every detector state flip (healthy ↔
	// unhealthy). Optional.
	OnVerdict func(v Verdict)

	targets []*target
	byName  map[string]*target

	// Probes and Fails count delivered probe outcomes (Skip excluded);
	// Detections counts unhealthy flips across all targets.
	Probes     int
	Fails      int
	Detections int
}

// axPhase tags the probe-stagger Mix64 draw so adding other draws later
// cannot silently reuse its stream.
const axPhase = 0x9A

// New creates a monitor. Policy zero-values are filled from the
// balanced preset.
func New(s *sim.Simulator, seed int64, policy Policy, probe func(string) ProbeResult) *Monitor {
	return &Monitor{
		S: s, Seed: seed, Policy: policy.withDefaults(),
		Probe:  probe,
		byName: make(map[string]*target),
	}
}

// Watch starts the probe loop for a target. The first probe lands at a
// seeded phase offset within one period so a fleet's probes spread over
// the period instead of striking in lockstep — deterministically: the
// offset is a Mix64 function of (seed, watch index), never an RNG draw.
func (m *Monitor) Watch(name string) error {
	if m.Probe == nil {
		return fmt.Errorf("health: monitor has no probe hook")
	}
	if prev := m.byName[name]; prev != nil && !prev.stopped {
		return fmt.Errorf("health: already watching %q", name)
	}
	t := &target{name: name, idx: len(m.targets)}
	m.targets = append(m.targets, t)
	m.byName[name] = t
	phase := sim.Time(sim.Mix64(m.Seed, int64(t.idx), axPhase) % uint64(m.Policy.ProbePeriod))
	m.S.InitTimer(&t.probe, "health.probe", func() { m.step(t) })
	t.probe.Reset(phase)
	return nil
}

// Unwatch stops probing a target (quarantine takes it out of the
// loop). Safe to call for unknown names.
func (m *Monitor) Unwatch(name string) {
	if t := m.byName[name]; t != nil {
		t.stopped = true
	}
}

// Watching reports whether the target currently has a live probe loop.
func (m *Monitor) Watching(name string) bool {
	t := m.byName[name]
	return t != nil && !t.stopped
}

// Unhealthy reports the detector's current belief about a target.
func (m *Monitor) Unhealthy(name string) bool {
	t := m.byName[name]
	return t != nil && t.unhealthy
}

// TargetStats reports per-target probe counters (probes delivered,
// failed probes, unhealthy flips).
func (m *Monitor) TargetStats(name string) (probes, fails, detections int) {
	if t := m.byName[name]; t != nil {
		return t.probes, t.fails, t.detections
	}
	return 0, 0, 0
}

// step delivers one probe to t and feeds the hysteresis filter.
func (m *Monitor) step(t *target) {
	if t.stopped {
		return
	}
	r := m.Probe(t.name)
	switch r.Status {
	case StatusSkip:
		// Frozen targets are unreachable by construction, not failed.
	case StatusOK:
		m.Probes++
		t.probes++
		t.failStreak = 0
		if t.unhealthy {
			t.okStreak++
			if t.okStreak >= m.Policy.RecoverThreshold {
				t.unhealthy = false
				t.okStreak = 0
				m.verdict(t, true, r.Node, m.Policy.RecoverThreshold)
			}
		}
	case StatusFail:
		m.Probes++
		m.Fails++
		t.probes++
		t.fails++
		t.okStreak = 0
		t.failStreak++
		if !t.unhealthy && t.failStreak >= m.Policy.FailThreshold {
			t.unhealthy = true
			t.detections++
			m.Detections++
			m.verdict(t, false, r.Node, t.failStreak)
		}
	}
	t.probe.Reset(m.Policy.ProbePeriod)
}

func (m *Monitor) verdict(t *target, healthy bool, node string, streak int) {
	if m.OnVerdict == nil {
		return
	}
	m.OnVerdict(Verdict{Target: t.name, Healthy: healthy, Node: node, At: m.S.Now(), Streak: streak})
}
