package ntpsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emucheck/internal/sim"
)

func TestUndisciplinedClockIsBad(t *testing.T) {
	s := sim.New(1)
	y := New(s, DefaultModel(), 1)
	if got := y.Error("ghost"); got != 500*sim.Millisecond {
		t.Fatalf("error = %v", got)
	}
	if y.Started("ghost") {
		t.Fatal("ghost started")
	}
}

func TestErrorConverges(t *testing.T) {
	s := sim.New(1)
	y := New(s, DefaultModel(), 1)
	y.Start("a")
	abs := func(x sim.Time) sim.Time {
		if x < 0 {
			return -x
		}
		return x
	}
	early := abs(y.ErrorAt("a", 1*sim.Second))
	late := abs(y.ErrorAt("a", 30*sim.Second))
	if early < 2*sim.Millisecond {
		t.Fatalf("early error %v too small", early)
	}
	if late > 400*sim.Microsecond {
		t.Fatalf("late error %v did not converge", late)
	}
	if late >= early {
		t.Fatal("no convergence")
	}
}

func TestSteadyStateNearPaperFigure(t *testing.T) {
	s := sim.New(1)
	y := New(s, DefaultModel(), 2)
	y.Start("a")
	y.Start("b")
	// After a minute, pairwise skew should be in the ~200 µs LAN regime.
	var worst sim.Time
	for ti := 60 * sim.Second; ti < 120*sim.Second; ti += 5 * sim.Second {
		if sk := y.Skew(ti, "a", "b"); sk > worst {
			worst = sk
		}
	}
	if worst > 500*sim.Microsecond {
		t.Fatalf("steady-state skew %v, want <= ~2x200us", worst)
	}
	if worst <= 0 {
		t.Fatal("skew should not be identically zero")
	}
}

func TestErrorIsDeterministicAndOrderIndependent(t *testing.T) {
	build := func() *Sync {
		s := sim.New(1)
		y := New(s, DefaultModel(), 3)
		y.Start("a")
		y.Start("b")
		return y
	}
	y1 := build()
	y2 := build()
	// Query y1 in one order, y2 in another.
	a1 := y1.ErrorAt("a", 10*sim.Second)
	b1 := y1.ErrorAt("b", 20*sim.Second)
	b2 := y2.ErrorAt("b", 20*sim.Second)
	a2 := y2.ErrorAt("a", 10*sim.Second)
	if a1 != a2 || b1 != b2 {
		t.Fatalf("order-dependent errors: %v/%v vs %v/%v", a1, b1, a2, b2)
	}
}

func TestLocalTrigger(t *testing.T) {
	s := sim.New(1)
	y := New(s, DefaultModel(), 4)
	y.Start("a")
	T := 10 * sim.Second
	tr := y.LocalTrigger("a", T)
	if got := tr + y.ErrorAt("a", T); got != T {
		t.Fatalf("trigger inconsistent: %v", got)
	}
}

func TestSkewEmpty(t *testing.T) {
	s := sim.New(1)
	y := New(s, DefaultModel(), 5)
	if y.Skew(sim.Second) != 0 {
		t.Fatal("empty skew")
	}
}

func TestConvergenceShapeMatchesFig6(t *testing.T) {
	// The paper's four checkpoint gaps at 5 s intervals decrease:
	// 5801, 816, 399, 330 µs. Check the model's skew decreases in the
	// same pattern: first gap milliseconds, later gaps sub-millisecond.
	s := sim.New(1)
	y := New(s, DefaultModel(), 6)
	y.Start("sender")
	y.Start("receiver")
	g1 := y.Skew(5*sim.Second, "sender", "receiver")
	g2 := y.Skew(10*sim.Second, "sender", "receiver")
	g4 := y.Skew(20*sim.Second, "sender", "receiver")
	if g1 < sim.Millisecond || g1 > 12*sim.Millisecond {
		t.Fatalf("first gap %v outside paper band", g1)
	}
	if g2 >= g1 {
		t.Fatalf("gap did not shrink: %v -> %v", g1, g2)
	}
	if g4 > 800*sim.Microsecond {
		t.Fatalf("fourth gap %v too large", g4)
	}
}

// Property: error magnitude is non-increasing in time between epochs of
// the floor process (sampled coarsely), and never exceeds the initial
// amplitude plus floor.
func TestPropertyBounded(t *testing.T) {
	f := func(tSec uint8) bool {
		s := sim.New(7)
		m := DefaultModel()
		y := New(s, m, 8)
		y.Start("n")
		e := y.ErrorAt("n", sim.Time(tSec)*sim.Second)
		if e < 0 {
			e = -e
		}
		return e <= m.InitialErrHi+m.FloorHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// freshDraws is the reference the model's draws must match: the node's
// start-up draws and the steady-state floor of each epoch, each from
// its own rand.NewSource.
type freshDraws struct {
	amp  float64
	salt int64
}

func freshStart(seed int64, m Model, name string) freshDraws {
	h := int64(0)
	for _, c := range name {
		h = h*131 + int64(c)
	}
	rng := rand.New(rand.NewSource(seed ^ h))
	sign := 1.0
	if rng.Intn(2) == 0 {
		sign = -1
	}
	amp := float64(m.InitialErrLo) + rng.Float64()*float64(m.InitialErrHi-m.InitialErrLo)
	return freshDraws{amp: sign * amp, salt: rng.Int63()}
}

func (d freshDraws) floor(m Model, epoch int64) float64 {
	r := rand.New(rand.NewSource(d.salt ^ epoch*2654435761))
	sign := 1.0
	if r.Intn(2) == 0 {
		sign = -1
	}
	return sign * (float64(m.FloorLo) + r.Float64()*float64(m.FloorHi-m.FloorLo))
}

// TestErrorAtMatchesFreshSourceDraws queries 1200 floor epochs on each
// of several nodes, in a shuffled order that interleaves the nodes, and
// requires every error to equal the one built from fresh sources.
func TestErrorAtMatchesFreshSourceDraws(t *testing.T) {
	const seed, epochs = 11, 1200
	m := DefaultModel()
	y := New(sim.New(1), m, seed)
	names := []string{"n0", "n1", "sender", "receiver", "q-n4"}
	ref := make(map[string]freshDraws)
	for _, name := range names {
		y.Start(name)
		ref[name] = freshStart(seed, m, name)
	}
	type query struct {
		name  string
		epoch int64
	}
	var qs []query
	for _, name := range names {
		for e := int64(0); e < epochs; e++ {
			qs = append(qs, query{name, e})
		}
	}
	rand.New(rand.NewSource(3)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	for _, q := range qs {
		at := sim.Time(q.epoch)*m.FloorEpoch + m.FloorEpoch/3
		d := ref[q.name]
		want := sim.Time(d.amp*math.Exp(-float64(at)/float64(m.Tau)) + d.floor(m, q.epoch))
		if got := y.ErrorAt(q.name, at); got != want {
			t.Fatalf("%s epoch %d: error %v, fresh-source draw %v", q.name, q.epoch, got, want)
		}
	}
}

// TestMemoizedErrorAtAllocatesNothing holds a query of an epoch already
// drawn to zero allocations.
func TestMemoizedErrorAtAllocatesNothing(t *testing.T) {
	y := New(sim.New(1), DefaultModel(), 12)
	y.Start("a")
	at := 9 * sim.Second
	y.ErrorAt("a", at)
	if allocs := testing.AllocsPerRun(100, func() { y.ErrorAt("a", at) }); allocs != 0 {
		t.Fatalf("memoized ErrorAt: %v allocs", allocs)
	}
}

// TestDrawsMatchMathRand holds the directly computed stream to
// rand.New(rand.NewSource(seed)): the first three outputs on 100 000
// random seeds plus zero, negative seeds and multiples of the seeding
// modulus (which reduce to zero), the Intn(2)/Float64/Int63 draws the
// model makes, and outputs past the third, which come from a real source.
func TestDrawsMatchMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, -2, math.MinInt64, math.MaxInt64, lcgMod, -lcgMod, 2 * lcgMod, 12345 * lcgMod, lcgMod - 1, lcgMod + 1, 89482311}
	gen := rand.New(rand.NewSource(42))
	for i := 0; i < 100000; i++ {
		s := gen.Int63()
		if i%2 == 1 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	for i, seed := range seeds {
		got, want := newStream(seed), rand.New(rand.NewSource(seed))
		outputs := 3
		if i < 1000 {
			outputs = 8 // past the three computed ones
		}
		for k := 0; k < outputs; k++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d output %d: %d, math/rand %d", seed, k, g, w)
			}
		}
		if i >= 1000 {
			continue
		}
		got, want = newStream(seed), rand.New(rand.NewSource(seed))
		if g, w := got.intn2(), want.Intn(2); g != w {
			t.Fatalf("seed %d: Intn(2) %d, math/rand %d", seed, g, w)
		}
		if g, w := got.float64(), want.Float64(); g != w {
			t.Fatalf("seed %d: Float64 %v, math/rand %v", seed, g, w)
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 %d, math/rand %d", seed, g, w)
		}
	}
}
