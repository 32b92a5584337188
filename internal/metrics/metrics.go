// Package metrics provides the measurement containers used by the
// evaluation harness: time series, percentile summaries, and windowed
// throughput aggregation matching the plots in the paper.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"emucheck/internal/sim"
)

// Sample is one (time, value) observation.
type Sample struct {
	T sim.Time
	V float64
}

// Series is an append-only time series.
type Series struct {
	Name    string
	Samples []Sample
}

// NewSeries creates an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends an observation. A full series asks for room for twice its
// length, which append's size rounding turns into about 2.4 times, so n
// samples cost O(log n) allocations and fewer than n samples of copying,
// but a series may hold up to 2.5 times the room it uses; append alone
// grows a large slice by only 1.25x. A long trace that must not regrow
// goes into a Log first.
func (s *Series) Add(t sim.Time, v float64) {
	if len(s.Samples) == cap(s.Samples) {
		s.Samples = slices.Grow(s.Samples, max(len(s.Samples), 64))
	}
	s.Samples = append(s.Samples, Sample{t, v})
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.Samples) }

// Values returns just the observation values, in order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Samples))
	for i, smp := range s.Samples {
		out[i] = smp.V
	}
	return out
}

// Mean reports the arithmetic mean of the values, or 0 for an empty series.
func (s *Series) Mean() float64 { return Mean(s.Values()) }

// Min reports the smallest value, or +Inf for an empty series.
func (s *Series) Min() float64 {
	m := math.Inf(1)
	for _, smp := range s.Samples {
		if smp.V < m {
			m = smp.V
		}
	}
	return m
}

// Max reports the largest value, or -Inf for an empty series.
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, smp := range s.Samples {
		if smp.V > m {
			m = smp.V
		}
	}
	return m
}

// Between returns the sub-series with lo <= T < hi.
func (s *Series) Between(lo, hi sim.Time) *Series {
	out := NewSeries(s.Name)
	for _, smp := range s.Samples {
		if smp.T >= lo && smp.T < hi {
			out.Add(smp.T, smp.V)
		}
	}
	return out
}

// Mean reports the arithmetic mean of vs, or 0 when empty.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Stddev reports the population standard deviation of vs.
func Stddev(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	m := Mean(vs)
	var ss float64
	for _, v := range vs {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(vs)))
}

// Percentile reports the p-th percentile (0..100) of vs using
// nearest-rank on a sorted copy. Empty input yields 0.
func Percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(c)))) - 1
	if rank < 0 {
		rank = 0
	}
	return c[rank]
}

// FractionWithin reports the fraction of values v with |v-center| <= tol.
func FractionWithin(vs []float64, center, tol float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	n := 0
	for _, v := range vs {
		if math.Abs(v-center) <= tol {
			n++
		}
	}
	return float64(n) / float64(len(vs))
}

// Throughput converts an event series (time, bytes) into a windowed
// throughput series in MB/s, matching the 20 ms-bucket averaging used for
// the paper's iperf plot (Figure 6).
func Throughput(events *Series, window sim.Time) *Series {
	out := NewSeries(events.Name + "/throughput")
	if events.Len() == 0 || window <= 0 {
		return out
	}
	end := events.Samples[len(events.Samples)-1].T
	first := events.Samples[0].T / window * window
	i := 0
	for start := first; start <= end; start += window {
		var bytes float64
		for i < len(events.Samples) && events.Samples[i].T < start+window {
			bytes += events.Samples[i].V
			i++
		}
		mbps := bytes / (1 << 20) / window.Seconds()
		out.Add(start, mbps)
	}
	return out
}

// InterArrivals computes successive T deltas of a series, in sim.Time.
func InterArrivals(s *Series) []sim.Time {
	if s.Len() < 2 {
		return nil
	}
	out := make([]sim.Time, 0, s.Len()-1)
	for i := 1; i < len(s.Samples); i++ {
		out = append(out, s.Samples[i].T-s.Samples[i-1].T)
	}
	return out
}

// Histogram is a fixed-bucket histogram over float64 values.
type Histogram struct {
	Lo, Hi  float64
	Buckets []int
	Under   int
	Over    int
	width   float64
}

// NewHistogram creates a histogram with n equal buckets over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("metrics: bad histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]int, n), width: (hi - lo) / float64(n)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	switch {
	case v < h.Lo:
		h.Under++
	case v >= h.Hi:
		h.Over++
	default:
		h.Buckets[int((v-h.Lo)/h.width)]++
	}
}

// Total reports the number of observed values including out-of-range.
func (h *Histogram) Total() int {
	n := h.Under + h.Over
	for _, b := range h.Buckets {
		n += b
	}
	return n
}

// Counters is a set of named monotonic accumulators (byte and event
// counts) with deterministic iteration order — the container swap and
// scheduling layers use to surface delta-vs-full transfer volumes to
// reports and scenario assertions.
type Counters struct {
	names []string
	vals  map[string]int64
}

// NewCounters creates an empty counter set.
func NewCounters() *Counters { return &Counters{vals: make(map[string]int64)} }

// Add accumulates n into the named counter (created at zero on first use).
func (c *Counters) Add(name string, n int64) {
	if _, ok := c.vals[name]; !ok {
		c.names = append(c.names, name)
	}
	c.vals[name] += n
}

// Get reports a counter's value (zero if never touched).
func (c *Counters) Get(name string) int64 { return c.vals[name] }

// Names returns counter names in first-touch order.
func (c *Counters) Names() []string { return append([]string(nil), c.names...) }

// String renders the counters as an aligned table.
func (c *Counters) String() string {
	t := &Table{Header: []string{"counter", "value"}}
	for _, name := range c.names {
		t.AddRow(name, c.vals[name])
	}
	return t.String()
}

// Table renders aligned rows for the benchmark harness output.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with column alignment.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
