// Package fault implements the testbed's seeded fault-injection plan:
// a declarative schedule of node crashes, control-LAN message loss and
// delay, and slow-disk / slow-save perturbations, armed against a
// running cluster. Everything an injection does flows through the
// simulator and the plan's own seeded draws, so a faulty run
// is exactly as deterministic as a clean one — two runs of the same
// plan under the same seed are byte-identical, which is what makes
// failure scenarios assertable and regressions bisectable (syslog
// studies of production clusters say partial failure is the steady
// state; here it is a replayable input).
//
// The plan is mechanism-agnostic: it knows *when* and *what kind*, and
// the hosting layer (the emucheck Cluster) supplies Hooks that know
// *how* — crash this tenant, throttle that spindle. Control-LAN
// perturbations install directly on the notify.Bus via its Inject
// point and are visible afterwards in the bus's per-topic drop stats.
package fault

import (
	"fmt"

	"emucheck/internal/notify"
	"emucheck/internal/sim"
)

// Kind enumerates injectable faults.
type Kind string

// Fault kinds.
const (
	// Crash fail-stops a tenant's nodes at At (or at its next save, with
	// DuringSave — the "node dies mid-epoch" scenario).
	Crash Kind = "crash"
	// Drop suppresses control-LAN deliveries scoped to the target:
	// the next Count matching deliveries inside the window are lost.
	Drop Kind = "drop"
	// Delay adds latency to matching control-LAN deliveries inside the
	// window (Extra, or seeded jitter up to 20 ms when Extra is zero).
	Delay Kind = "delay"
	// SlowDisk diverts spindle bandwidth on one node for the window —
	// the degraded-disk straggler.
	SlowDisk Kind = "slow_disk"
	// SlowSave degrades one node's checkpoint copy engine for the
	// window, stretching its save past its peers' (and, with a save
	// deadline armed, past the barrier).
	SlowSave Kind = "slow_save"
)

// Injection is one planned fault.
type Injection struct {
	Kind Kind
	// At is when the injection arms.
	At sim.Time
	// Target is the experiment (notification scope) the fault hits.
	Target string
	// Node names the affected node where the kind needs one (slow_disk,
	// slow_save, and drop/delay when targeting one daemon's deliveries).
	Node string
	// DuringSave delays a crash until the target's epoch FSM reaches
	// the saving phase (armed from At onward).
	DuringSave bool
	// Topic filters drop/delay to one bus topic (default "checkpoint",
	// so a lost notification strands a straggler rather than wedging a
	// resume).
	Topic string
	// Count bounds drop faults: deliveries suppressed (default 1).
	Count int
	// Extra is the added delivery latency for delay faults (0: seeded
	// jitter up to 20 ms per delivery).
	Extra sim.Time
	// Factor divides the perturbed rate for slow faults (default 4).
	Factor float64
	// Window bounds drop/delay/slow injections (default 30 s from At).
	Window sim.Time
	// Seed perturbs this injection's own jittered choices (delay
	// faults); zero derives one from the plan seed and the injection's
	// position, so reordering the plan only reorders — never couples —
	// the streams.
	Seed int64

	remaining int   // drop budget left
	key       int64 // keys the injection's jitter draws
	draws     int64 // jitter draws made
}

func (inj *Injection) defaults() {
	if inj.Topic == "" {
		inj.Topic = notify.TopicCheckpoint
	}
	if inj.Count <= 0 {
		inj.Count = 1
	}
	inj.remaining = inj.Count
	if inj.Factor <= 1 {
		inj.Factor = 4
	}
	if inj.Window <= 0 {
		inj.Window = 30 * sim.Second
	}
}

// Hooks connect a plan to the hosting testbed's mechanisms. Each hook
// may reject an injection (target not in service, unknown node); the
// plan records the rejection in Errors and carries on — a fault plan
// never takes the run down.
type Hooks struct {
	// Crash fail-stops a tenant (node names the member that died).
	Crash func(target, node string) error
	// WhenSaving runs fn the next time the target's epoch FSM enters
	// its saving phase.
	WhenSaving func(target string, fn func())
	// SlowDisk degrades one node's spindle by factor for d.
	SlowDisk func(target, node string, factor float64, d sim.Time) error
	// SlowSave degrades one node's checkpoint copy engine by factor
	// for d.
	SlowSave func(target, node string, factor float64, d sim.Time) error
}

// Plan is a seeded, deterministic fault schedule.
type Plan struct {
	Seed       int64
	Injections []Injection

	// Counters, for results and assertions.
	Crashes int
	Dropped int
	Delayed int
	Slowed  int
	// Errors records injections the hosting layer rejected.
	Errors []string

	s *sim.Simulator
}

// Arm schedules every injection on the simulator and installs the
// control-LAN perturbations on the bus. Call once, before the run.
func (p *Plan) Arm(s *sim.Simulator, bus *notify.Bus, h Hooks) {
	p.s = s
	base := p.Seed
	if base == 0 {
		base = 1
	}
	needBus := false
	for i := range p.Injections {
		inj := &p.Injections[i]
		inj.defaults()
		seed := inj.Seed
		if seed == 0 {
			seed = base + int64(i) + 1
		}
		inj.key, inj.draws = seed, 0
		switch inj.Kind {
		case Crash:
			fire := func() {
				if err := h.Crash(inj.Target, inj.Node); err != nil {
					p.fail(inj, err)
					return
				}
				p.Crashes++
			}
			if inj.DuringSave {
				s.At(inj.At, "fault.crash-arm", func() { h.WhenSaving(inj.Target, fire) })
			} else {
				s.At(inj.At, "fault.crash", fire)
			}
		case Drop, Delay:
			// Window-based: consulted per delivery via the bus hook.
			needBus = true
		case SlowDisk:
			s.At(inj.At, "fault.slow-disk", func() {
				if err := h.SlowDisk(inj.Target, inj.Node, inj.Factor, inj.Window); err != nil {
					p.fail(inj, err)
					return
				}
				p.Slowed++
			})
		case SlowSave:
			s.At(inj.At, "fault.slow-save", func() {
				if err := h.SlowSave(inj.Target, inj.Node, inj.Factor, inj.Window); err != nil {
					p.fail(inj, err)
					return
				}
				p.Slowed++
			})
		default:
			p.Errors = append(p.Errors, fmt.Sprintf("unknown fault kind %q", inj.Kind))
		}
	}
	if needBus {
		bus.Inject = p.deliver
	}
}

func (p *Plan) fail(inj *Injection, err error) {
	p.Errors = append(p.Errors, fmt.Sprintf("%s@%v on %s: %v", inj.Kind, inj.At, inj.Target, err))
}

// deliver is the bus's per-delivery injection point: drop windows
// suppress matching deliveries until their budget runs out; delay
// windows add latency. owner is the subscribing daemon's node name.
func (p *Plan) deliver(m *notify.Msg, owner string) (bool, sim.Time) {
	now := p.s.Now()
	var extra sim.Time
	for i := range p.Injections {
		inj := &p.Injections[i]
		if inj.Kind != Drop && inj.Kind != Delay {
			continue
		}
		if m.Scope != inj.Target || m.Topic != inj.Topic {
			continue
		}
		if inj.Node != "" && inj.Node != owner {
			continue
		}
		if now < inj.At || now >= inj.At+inj.Window {
			continue
		}
		if inj.Kind == Drop {
			if inj.remaining > 0 {
				inj.remaining--
				p.Dropped++
				return true, 0
			}
			continue
		}
		e := inj.Extra
		if e <= 0 {
			e = sim.Time(sim.Mix64(inj.key, inj.draws) % uint64(20*sim.Millisecond))
			inj.draws++
		}
		extra += e
		p.Delayed++
	}
	return false, extra
}
