package ntpsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emucheck/internal/sim"
)

func TestUndisciplinedClockIsBad(t *testing.T) {
	s := sim.New(1)
	y := New(s, 1)
	if got := y.Error("ghost"); got != 500*sim.Millisecond {
		t.Fatalf("error = %v", got)
	}
	if y.Started("ghost") {
		t.Fatal("ghost started")
	}
}

func TestErrorConverges(t *testing.T) {
	s := sim.New(1)
	y := New(s, 1)
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
	y := New(s, 2)
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
		y := New(sim.New(1), 3)
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

// freshError computes a node's error from fresh sim.Mix64 draws, as the
// package documents them: for a name hashing to h, the amplitude draw is
// keyed (seed, h, 0) and the floor of epoch e (Mix64(seed, h, 1), e);
// each draw's top 53 bits give the magnitude and bit 0 the sign.
func freshError(seed int64, name string, at sim.Time) sim.Time {
	h := int64(0)
	for _, c := range name {
		h = h*131 + int64(c)
	}
	draw := func(x uint64, lo, hi sim.Time) float64 {
		mag := float64(lo) + math.Ldexp(float64(x>>11), -53)*float64(hi-lo)
		if x%2 == 0 {
			return -mag
		}
		return mag
	}
	amp := draw(sim.Mix64(seed, h, 0), initialLo, initialHi)
	floor := draw(sim.Mix64(int64(sim.Mix64(seed, h, 1)), int64(at/floorEpoch)), floorLo, floorHi)
	return sim.Time(amp*math.Exp(-float64(at)/float64(tau)) + floor)
}

// TestErrorAtMatchesFreshSourceDraws queries 1200 floor epochs on each
// of several nodes, in a shuffled order that interleaves the nodes, and
// requires every error to equal the one built from fresh draws.
func TestErrorAtMatchesFreshSourceDraws(t *testing.T) {
	const seed, epochs = 11, 1200
	y := New(sim.New(1), seed)
	names := []string{"n0", "n1", "sender", "receiver", "q-n4"}
	type query struct {
		name  string
		epoch int64
	}
	var qs []query
	for _, name := range names {
		y.Start(name)
		for e := int64(0); e < epochs; e++ {
			qs = append(qs, query{name, e})
		}
	}
	rand.New(rand.NewSource(3)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	for _, q := range qs {
		at := sim.Time(q.epoch)*floorEpoch + floorEpoch/3
		want := freshError(seed, q.name, at)
		if got := y.ErrorAt(q.name, at); got != want {
			t.Fatalf("%s epoch %d: error %v, fresh draw %v", q.name, q.epoch, got, want)
		}
	}
}

func TestLocalTrigger(t *testing.T) {
	s := sim.New(1)
	y := New(s, 4)
	y.Start("a")
	T := 10 * sim.Second
	tr := y.LocalTrigger("a", T)
	if got := tr + y.ErrorAt("a", T); got != T {
		t.Fatalf("trigger inconsistent: %v", got)
	}
}

func TestSkewEmpty(t *testing.T) {
	s := sim.New(1)
	y := New(s, 5)
	if y.Skew(sim.Second) != 0 {
		t.Fatal("empty skew")
	}
}

func TestConvergenceShapeMatchesFig6(t *testing.T) {
	// The paper's four checkpoint gaps at 5 s intervals decrease:
	// 5801, 816, 399, 330 µs. Check the model's skew decreases in the
	// same pattern: first gap milliseconds, later gaps sub-millisecond.
	s := sim.New(1)
	y := New(s, 6)
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
		y := New(s, 8)
		y.Start("n")
		e := y.ErrorAt("n", sim.Time(tSec)*sim.Second)
		if e < 0 {
			e = -e
		}
		return e <= initialHi+floorHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestErrorAtAllocatesNothing holds every query to zero allocations:
// the first of each floor epoch as well as a repeated one.
func TestErrorAtAllocatesNothing(t *testing.T) {
	y := New(sim.New(1), 12)
	y.Start("a")
	at := 9 * sim.Second
	if allocs := testing.AllocsPerRun(100, func() {
		at += floorEpoch
		y.ErrorAt("a", at)
		y.ErrorAt("a", at)
	}); allocs != 0 {
		t.Fatalf("ErrorAt: %v allocs", allocs)
	}
}

// TestDrawDistribution checks the draws over 10k epochs and 10k node
// names: every start-up amplitude and every floor lies in its band, and
// each sign turns up 45-55% of the time.
func TestDrawDistribution(t *testing.T) {
	const n = 10000
	y := New(sim.New(1), 13)
	var amps, nodeFloors, epochFloors []float64
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node-%d", i)
		y.Start(name)
		amps = append(amps, y.nodes[name].amp)
		nodeFloors = append(nodeFloors, y.nodes[name].floor(floorEpoch))
	}
	for e := sim.Time(0); e < n; e++ {
		epochFloors = append(epochFloors, y.nodes["node-0"].floor(e*floorEpoch))
	}
	check := func(what string, vs []float64, lo, hi sim.Time) {
		neg := 0
		for _, v := range vs {
			if math.Abs(v) < float64(lo) || math.Abs(v) >= float64(hi) {
				t.Fatalf("%s %v outside ±[%v, %v)", what, sim.Time(v), lo, hi)
			}
			if v < 0 {
				neg++
			}
		}
		if neg < len(vs)*45/100 || neg > len(vs)*55/100 {
			t.Fatalf("%s: %d of %d negative", what, neg, len(vs))
		}
	}
	check("amplitude", amps, initialLo, initialHi)
	check("floor across nodes", nodeFloors, floorLo, floorHi)
	check("floor across epochs", epochFloors, floorLo, floorHi)
}
