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
package ntpsim

import (
	"math"
	"math/rand"

	"emucheck/internal/sim"
)

// Model holds the convergence parameters.
type Model struct {
	// InitialErrLo/Hi bound the per-node error amplitude right after the
	// NTP daemon starts (coarse initial step).
	InitialErrLo, InitialErrHi sim.Time
	// Tau is the exponential convergence constant.
	Tau sim.Time
	// FloorLo/Hi bound the steady-state error (the ~200 µs LAN figure).
	FloorLo, FloorHi sim.Time
	// FloorEpoch is how often the steady-state error re-wanders.
	FloorEpoch sim.Time
}

// DefaultModel is calibrated so two-node skew at 5 s after start is a
// few milliseconds and settles near 200 µs total by ~15 s.
func DefaultModel() Model {
	return Model{
		InitialErrLo: 24 * sim.Millisecond,
		InitialErrHi: 40 * sim.Millisecond,
		Tau:          2800 * sim.Millisecond,
		FloorLo:      60 * sim.Microsecond,
		FloorHi:      170 * sim.Microsecond,
		FloorEpoch:   4 * sim.Second,
	}
}

type nodeState struct {
	amp     float64 // initial amplitude, signed
	started sim.Time
	salt    int64
	floors  map[int64]float64 // per-epoch steady error, signed, lazily drawn
}

// Sync models the NTP discipline of a set of nodes against true time.
// Every draw reads a fresh stream seeded from fixed values, so values
// do not depend on draw order.
type Sync struct {
	s     *sim.Simulator
	m     Model
	nodes map[string]*nodeState
	seed  int64
}

// New creates a Sync using the simulation's determinism (a per-node
// seeded stream derived from seed keeps lazily-sampled errors stable).
func New(s *sim.Simulator, m Model, seed int64) *Sync {
	return &Sync{s: s, m: m, nodes: make(map[string]*nodeState), seed: seed}
}

// lcgMod is the modulus of the LCG math/rand seeds its state with.
const lcgMod = 1<<31 - 1

// cooked holds rngCooked[331:334] and rngCooked[604:607] from
// $GOROOT/src/math/rand/rng.go: the state words, before seeding mixes
// them, that the first three outputs of a fresh source read.
var cooked = [2][3]int64{
	{-1072987336855386047, 4287360518296753003, -4633371852008891965},
	{8382142935188824023, 9103922860780351547, 4152330101494654406},
}

// jumps are 48271^(21+3i) mod lcgMod for i = 331 and 604: seeding
// steps the LCG 20 times, then 3 times per state word, so state word i
// starts at the seed times this.
var jumps = [2]uint64{powMod(48271, 21+3*331), powMod(48271, 21+3*604)}

func powMod(b, e uint64) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = r * b % lcgMod
		}
		b = b * b % lcgMod
	}
	return r
}

// stream yields the values rand.New(rand.NewSource(seed)) would, without
// seeding a 607-word source. Every draw here reads at most three Int63
// outputs, and output k is state word 333-k plus word 606-k, so those
// six words are computed directly. A fourth output (Float64 resampling
// a rounded-up 1.0) comes from a real source.
type stream struct {
	seed int64
	out  [3]int64
	n    int
	rest rand.Source
}

func newStream(seed int64) stream {
	x := seed % lcgMod
	if x < 0 {
		x += lcgMod
	}
	if x == 0 {
		x = 89482311 // as rngSource.Seed
	}
	var w [2][3]int64
	for b, jump := range jumps {
		v := uint64(x) * jump % lcgMod
		for k := range w[b] {
			var u int64
			for shift := 40; shift >= 0; shift -= 20 {
				u ^= int64(v) << shift
				v = v * 48271 % lcgMod
			}
			w[b][k] = u ^ cooked[b][k]
		}
	}
	st := stream{seed: seed}
	for k := range st.out {
		st.out[k] = (w[0][2-k] + w[1][2-k]) & (1<<63 - 1)
	}
	return st
}

// Int63 is rand.Source.Int63.
func (st *stream) Int63() int64 {
	if st.n < len(st.out) {
		st.n++
		return st.out[st.n-1]
	}
	if st.rest == nil {
		st.rest = rand.NewSource(st.seed)
		for range st.out {
			st.rest.Int63()
		}
	}
	return st.rest.Int63()
}

// intn2 is rand.Rand.Intn(2).
func (st *stream) intn2() int { return int(st.Int63() >> 32 & 1) }

// float64 is rand.Rand.Float64.
func (st *stream) float64() float64 {
	for {
		if f := float64(st.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Start begins disciplining a node's clock at the current time.
func (y *Sync) Start(name string) {
	h := int64(0)
	for _, c := range name {
		h = h*131 + int64(c)
	}
	rng := newStream(y.seed ^ h)
	sign := 1.0
	if rng.intn2() == 0 {
		sign = -1
	}
	amp := float64(y.m.InitialErrLo) + rng.float64()*float64(y.m.InitialErrHi-y.m.InitialErrLo)
	y.nodes[name] = &nodeState{
		amp:     sign * amp,
		started: y.s.Now(),
		salt:    rng.Int63(),
		floors:  make(map[int64]float64),
	}
}

// Started reports whether the node is being disciplined.
func (y *Sync) Started(name string) bool {
	_, ok := y.nodes[name]
	return ok
}

func (n *nodeState) floor(m Model, t sim.Time) float64 {
	epoch := int64(t / m.FloorEpoch)
	if v, ok := n.floors[epoch]; ok {
		return v
	}
	// Draw deterministically from a stream seeded by the node's fixed
	// salt and the epoch, so access order does not matter.
	r := newStream(n.salt ^ epoch*2654435761)
	sign := 1.0
	if r.intn2() == 0 {
		sign = -1
	}
	v := sign * (float64(m.FloorLo) + r.float64()*float64(m.FloorHi-m.FloorLo))
	n.floors[epoch] = v
	return v
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
	age := t - n.started
	if age < 0 {
		age = 0
	}
	decay := n.amp * math.Exp(-float64(age)/float64(y.m.Tau))
	return sim.Time(decay + n.floor(y.m, t))
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
