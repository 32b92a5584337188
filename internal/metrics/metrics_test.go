package metrics

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"emucheck/internal/sim"
)

// TestSeriesAddAllocs holds an append-only series to geometric growth:
// 1<<20 samples take one allocation per doubling from 64, where
// append's 1.25x large-slice growth takes about 39.
func TestSeriesAddAllocs(t *testing.T) {
	const n = 1 << 20
	s := NewSeries("x")
	allocs := testing.AllocsPerRun(1, func() {
		s.Samples = nil
		for i := 0; i < n; i++ {
			s.Add(sim.Time(i), float64(i))
		}
	})
	if limit := math.Ceil(math.Log2(n/64)) + 1; allocs > limit {
		t.Fatalf("%v allocations for %d samples, limit %v", allocs, n, limit)
	}
	var ref []Sample
	for i := 0; i < n; i++ {
		ref = append(ref, Sample{sim.Time(i), float64(i)})
	}
	if !slices.Equal(s.Samples, ref) {
		t.Fatal("samples differ from a plain append")
	}
}

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("x")
	s.Add(1, 10)
	s.Add(2, 20)
	s.Add(3, 30)
	if s.Len() != 3 {
		t.Fatal("len")
	}
	if s.Mean() != 20 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Min() != 10 || s.Max() != 30 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	sub := s.Between(2, 3)
	if sub.Len() != 1 || sub.Samples[0].V != 20 {
		t.Fatalf("between: %+v", sub.Samples)
	}
}

func TestEmptySeries(t *testing.T) {
	s := NewSeries("e")
	if s.Mean() != 0 {
		t.Fatal("empty mean")
	}
	if !math.IsInf(s.Min(), 1) || !math.IsInf(s.Max(), -1) {
		t.Fatal("empty min/max sentinels")
	}
	if got := InterArrivals(s); got != nil {
		t.Fatal("empty interarrivals")
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{5, 1, 3, 2, 4}
	if Percentile(vs, 0) != 1 {
		t.Fatal("p0")
	}
	if Percentile(vs, 100) != 5 {
		t.Fatal("p100")
	}
	if Percentile(vs, 50) != 3 {
		t.Fatalf("p50 = %v", Percentile(vs, 50))
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("nil input")
	}
	// Percentile must not mutate its input.
	if vs[0] != 5 {
		t.Fatal("input mutated")
	}
}

func TestPropertyPercentileBounds(t *testing.T) {
	f := func(raw []float64, p uint8) bool {
		vs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return true
		}
		got := Percentile(vs, float64(p%101))
		c := append([]float64(nil), vs...)
		sort.Float64s(c)
		return got >= c[0] && got <= c[len(c)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStddev(t *testing.T) {
	if Stddev([]float64{2, 2, 2}) != 0 {
		t.Fatal("constant stddev")
	}
	if Stddev([]float64{1}) != 0 {
		t.Fatal("single value")
	}
	got := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("stddev = %v, want 2", got)
	}
}

func TestFractionWithin(t *testing.T) {
	vs := []float64{10, 10.5, 11, 20}
	if got := FractionWithin(vs, 10, 1); got != 0.75 {
		t.Fatalf("fraction = %v", got)
	}
	if FractionWithin(nil, 0, 1) != 0 {
		t.Fatal("nil input")
	}
}

func TestThroughputWindows(t *testing.T) {
	ev := NewSeries("bytes")
	// 1 MiB at t=0, 1 MiB at t=0.5s, 2 MiB at t=1.2s
	ev.Add(0, 1<<20)
	ev.Add(500*sim.Millisecond, 1<<20)
	ev.Add(1200*sim.Millisecond, 2<<20)
	th := Throughput(ev, sim.Second)
	if th.Len() != 2 {
		t.Fatalf("windows = %d", th.Len())
	}
	if th.Samples[0].V != 2 { // 2 MiB over 1 s
		t.Fatalf("w0 = %v", th.Samples[0].V)
	}
	if th.Samples[1].V != 2 {
		t.Fatalf("w1 = %v", th.Samples[1].V)
	}
	if Throughput(NewSeries("e"), sim.Second).Len() != 0 {
		t.Fatal("empty events")
	}
}

func TestInterArrivals(t *testing.T) {
	s := NewSeries("x")
	s.Add(10, 0)
	s.Add(30, 0)
	s.Add(35, 0)
	got := InterArrivals(s)
	if len(got) != 2 || got[0] != 20 || got[1] != 5 {
		t.Fatalf("interarrivals = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{-1, 0, 1.9, 2, 9.99, 10, 100} {
		h.Observe(v)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("under/over = %d/%d", h.Under, h.Over)
	}
	if h.Buckets[0] != 2 { // 0 and 1.9
		t.Fatalf("bucket0 = %d", h.Buckets[0])
	}
	if h.Buckets[1] != 1 { // 2
		t.Fatalf("bucket1 = %d", h.Buckets[1])
	}
	if h.Buckets[4] != 1 { // 9.99
		t.Fatalf("bucket4 = %d", h.Buckets[4])
	}
	if h.Total() != 7 {
		t.Fatalf("total = %d", h.Total())
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"op", "MB/s"}}
	tb.AddRow("write", 62.5)
	tb.AddRow("read", 70)
	out := tb.String()
	if !strings.Contains(out, "write") || !strings.Contains(out, "62.50") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
}

func TestPropertyMeanWithinRange(t *testing.T) {
	f := func(raw []float64) bool {
		vs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return Mean(vs) == 0
		}
		m := Mean(vs)
		c := append([]float64(nil), vs...)
		sort.Float64s(c)
		return m >= c[0]-1e-6 && m <= c[len(c)-1]+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
