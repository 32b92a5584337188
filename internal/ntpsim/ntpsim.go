// Package ntpsim models NTP clock synchronization over the Emulab
// control network (paper §4.3). The paper relies on NTP because it needs
// no extra hardware; under good LAN conditions it synchronizes clocks to
// ~200 µs.
//
// The model captures the property the evaluation actually exercises:
// discipline *converges*. Each node's clock error starts at a few
// milliseconds after (re)start and decays exponentially toward a steady
// jitter floor. Figure 6's decreasing checkpoint gaps — 5801, 816, 399,
// 330 µs — are two-node skews sampled along exactly this convergence
// curve.
//
// Every draw is a pure function of sim.Mix64 keys (seed, node, epoch),
// so errors do not depend on query order and cost no allocation.
package ntpsim

import (
	"math"

	"emucheck/internal/sim"
)

// The convergence model: two-node skew at 5 s after start is a few
// milliseconds and settles near 200 µs total by ~15 s.
const (
	// initialLo/Hi bound the per-node error amplitude right after the
	// NTP daemon starts (coarse initial step).
	initialLo, initialHi = 24 * sim.Millisecond, 40 * sim.Millisecond
	// tau is the exponential convergence constant.
	tau = 2800 * sim.Millisecond
	// floorLo/Hi bound the steady-state error (the ~200 µs LAN figure).
	floorLo, floorHi = 60 * sim.Microsecond, 170 * sim.Microsecond
	// floorEpoch is how often the steady-state error re-wanders.
	floorEpoch = 4 * sim.Second
)

type nodeState struct {
	amp      float64 // initial amplitude, signed
	started  sim.Time
	floorKey int64 // keys the node's per-epoch floor draws
}

// Sync models the NTP discipline of a set of nodes against true time.
type Sync struct {
	s     *sim.Simulator
	nodes map[string]*nodeState
	seed  int64
}

// New creates a Sync whose draws are keyed by seed.
func New(s *sim.Simulator, seed int64) *Sync {
	return &Sync{s: s, nodes: make(map[string]*nodeState), seed: seed}
}

// signed maps a draw to a value in ±[lo, hi): the magnitude from its
// top 53 bits, the sign from bit 0.
func signed(x uint64, lo, hi sim.Time) float64 {
	v := float64(lo) + float64(x>>11)/(1<<53)*float64(hi-lo)
	if x&1 == 0 {
		return -v
	}
	return v
}

// Start begins disciplining a node's clock at the current time.
func (y *Sync) Start(name string) {
	h := int64(0)
	for _, c := range name {
		h = h*131 + int64(c)
	}
	y.nodes[name] = &nodeState{
		amp:      signed(sim.Mix64(y.seed, h, 0), initialLo, initialHi),
		started:  y.s.Now(),
		floorKey: int64(sim.Mix64(y.seed, h, 1)),
	}
}

// Started reports whether the node is being disciplined.
func (y *Sync) Started(name string) bool {
	_, ok := y.nodes[name]
	return ok
}

// ErrorAt reports the signed offset of the node's disciplined clock from
// true time at real time t: local = true + err.
func (y *Sync) ErrorAt(name string, t sim.Time) sim.Time {
	n, ok := y.nodes[name]
	if !ok {
		// Undisciplined clocks are useless for scheduling; make that
		// loudly visible rather than silently perfect.
		return 500 * sim.Millisecond
	}
	age := max(t-n.started, 0)
	return sim.Time(n.amp*math.Exp(-float64(age)/float64(tau)) + n.floor(t))
}

// floor is the node's steady-state error in t's floor epoch.
func (n *nodeState) floor(t sim.Time) float64 {
	return signed(sim.Mix64(n.floorKey, int64(t/floorEpoch)), floorLo, floorHi)
}

// Error reports the node's current clock error.
func (y *Sync) Error(name string) sim.Time { return y.ErrorAt(name, y.s.Now()) }

// LocalTrigger converts a global scheduled time into the real time at
// which the node's local clock reads that value: the node's timer fires
// when local==T, i.e. at real time T - err — but the error itself is
// evaluated at T, a good approximation for slowly varying discipline.
func (y *Sync) LocalTrigger(name string, globalT sim.Time) sim.Time {
	return globalT - y.ErrorAt(name, globalT)
}

// Skew reports the worst pairwise trigger skew across the given nodes
// for a checkpoint scheduled at global time t.
func (y *Sync) Skew(t sim.Time, names ...string) sim.Time {
	if len(names) == 0 {
		return 0
	}
	lo, hi := sim.Never, sim.Time(-1<<62)
	for _, n := range names {
		tr := y.LocalTrigger(n, t)
		if tr < lo {
			lo = tr
		}
		if tr > hi {
			hi = tr
		}
	}
	return hi - lo
}
