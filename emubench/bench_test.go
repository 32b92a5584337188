package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"emucheck/internal/federation"
	"emucheck/internal/sim"
)

// Reduced sizes: the same rounds as the benchmark, small enough for a
// unit test.
var (
	packetSmall = packetSize{
		warm: 200 * sim.Millisecond, interval: sim.Second, checkpoints: 2,
		park: 5 * sim.Second, tail: 500 * sim.Millisecond,
	}
	corpusSmall = 16 // two scenarios of each shape
	fleetSmall  = federation.Config{Facilities: 2, Tenants: 400, Workers: 1, Migration: true, WarmUp: true}
)

var small = map[string]func(seed int64) (*round, error){
	"packet-ckpt": func(seed int64) (*round, error) { return packetRound(seed, packetSmall, nil, &meter{probing: true}) },
	"corpus":      func(seed int64) (*round, error) { return corpusRound(seed, corpusSmall, nil, &meter{probing: true}) },
	"fleet":       func(seed int64) (*round, error) { return fleetRound(seed, fleetSmall, nil, &meter{probing: true}) },
}

// simulated reports whether a per-layer metric is a pure function of
// the inputs (simulated time, counts, sizes), as opposed to a host
// measurement.
func simulated(m metric) bool {
	switch m.unit {
	case "ms", "us", "ns", "s":
		return false
	}
	return !strings.HasPrefix(m.name, "runtime.") && !strings.HasPrefix(m.name, "cpu.") &&
		!strings.HasPrefix(m.name, "trace.")
}

// TestDeterminism runs every workload twice at one seed and once at
// another: the same seed must give the identical outage, digest and
// simulated per-layer values, and another seed another digest, which
// shows the seed reaches the inputs.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		runRound := small[w.name]
		a, err := runRound(1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := runRound(1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		c, err := runRound(2)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, r := range []*round{a, b, c} {
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("%s: %d of %d operations failed", w.name, r.failed, r.attempted)
			}
			if r.outage <= 0 {
				t.Errorf("%s: outage_sim_s = %v, want > 0", w.name, r.outage)
			}
		}
		if a.digest != b.digest || a.outage != b.outage {
			t.Errorf("%s: same seed diverged: digest %x vs %x, outage %v vs %v", w.name, a.digest, b.digest, a.outage, b.outage)
		}
		for _, m := range perLayer {
			if simulated(m) && a.layer[m.name] != b.layer[m.name] {
				t.Errorf("%s: %s diverged at the same seed: %v vs %v", w.name, m.name, a.layer[m.name], b.layer[m.name])
			}
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %x", w.name, a.digest)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{7, 3}, 2, 5, 8},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestCPUProfileBuckets profiles a simulator loop, reads the profile
// back through the toolchain's pprof and finds its time in known
// buckets.
func TestCPUProfileBuckets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	_, err := profiled(path, map[string]int64{}, func() (*round, error) {
		for i := 0; i < 2; i++ {
			if _, err := packetRound(int64(i+1), packetSmall, nil, &meter{}); err != nil {
				return nil, err
			}
		}
		return &round{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	if err := addCPUProfile(path, got); err != nil {
		t.Fatal(err)
	}
	var total int64
	for b, v := range got {
		total += v
		if !slices.Contains(cpuBuckets, b) {
			t.Errorf("bucket %q is not in cpuBuckets", b)
		}
	}
	if total == 0 || got["sim"] == 0 {
		t.Errorf("profile attributed %d ns in total, %d ns to sim; want both > 0", total, got["sim"])
	}
}

// TestAddTop parses a pprof -top table and rejects output without one.
func TestAddTop(t *testing.T) {
	out := `File: emubench
Type: cpu
Showing nodes accounting for 40000000ns, 100% of 40000000ns total
      flat  flat%   sum%        cum   cum%
20000000ns 50.00% 50.00% 20000000ns 50.00%  emucheck/internal/sim.eventLess (inline)
10000000ns 25.00% 75.00% 10000000ns 25.00%  runtime.mallocgc
10000000ns 25.00%   100% 30000000ns 75.00%  emucheck/internal/sim.(*Simulator).Step
         0     0%   100% 40000000ns   100%  main.packetRound
`
	got := map[string]int64{}
	if err := addTop([]byte(out), got); err != nil {
		t.Fatal(err)
	}
	if got["sim"] != 30000000 || got["runtime"] != 10000000 || got["other"] != 0 {
		t.Errorf("addTop = %v, want sim 30ms, runtime 10ms, other 0", got)
	}
	if err := addTop([]byte("File: emubench\nno samples\n"), got); err == nil {
		t.Error("addTop accepted output without a table")
	}
}

// TestClockLeaked checks the virtual-clock test of the swap cycle:
// across the swapped-out span the receiver's clock may advance by the
// time since the guest resumed plus the slack, so any share of a 30 s
// park that leaks into guest time fails it.
func TestClockLeaked(t *testing.T) {
	for _, tc := range []struct {
		vJump, running sim.Time
		want           bool
	}{
		{0, 0, false},
		{23 * sim.Microsecond, 0, false}, // the thaw's leak, as measured
		{900 * sim.Microsecond, 0, false},
		{2 * sim.Millisecond, 0, true},
		{sim.Second, 0, true},                   // one second of the park leaked
		{29 * sim.Second, 0, true},              // 29 s of it leaked
		{30 * sim.Second, 0, true},              // all of it
		{2 * sim.Second, 2 * sim.Second, false}, // ran 2 s after the resume
		{3 * sim.Second, 2 * sim.Second, true},
	} {
		if got := clockLeaked(tc.vJump, tc.running); got != tc.want {
			t.Errorf("clockLeaked(%v, %v) = %v, want %v", tc.vJump, tc.running, got, tc.want)
		}
	}
}

// TestMeter checks that a probing meter leaves its probes out of the
// phase's host time and scales that time by the probe's speed.
func TestMeter(t *testing.T) {
	m := &meter{probing: true}
	m.begin()
	busy := time.Now()
	for time.Since(busy) < 30*time.Millisecond {
	}
	m.last = time.Time{} // force a probe at the next tick
	m.tick()
	host, ref := m.end()
	if len(m.probes) != 2*probeBracket+1 || m.mean <= 0 {
		t.Fatalf("probes %v, mean %v; want %d probes", m.probes, m.mean, 2*probeBracket+1)
	}
	if inside := m.probes[probeBracket]; host >= time.Since(busy) || host < 30*time.Millisecond {
		t.Errorf("host %v: want the 30ms phase without the %v probe inside it", host, inside)
	}
	if want := time.Duration(float64(host) * float64(probeNominal) / float64(m.mean)); ref != want {
		t.Errorf("ref = %v, want %v", ref, want)
	}
	plain := &meter{}
	plain.begin()
	if host, ref := plain.end(); host != ref || len(plain.probes) != 0 {
		t.Errorf("non-probing meter: host %v ref %v probes %d", host, ref, len(plain.probes))
	}
}

// TestUsage checks that a bad invocation fails without a result line.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1"},
		{"--workload", "fleet", "--seconds", "0"},
		{"--workload", "fleet", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q; want a nonzero code and no output", args, code, out.String())
		}
	}
}

// TestPublicAPIOnly keeps the workloads off the evaluation harnesses,
// which are due to be rewritten.
func TestPublicAPIOnly(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for name, f := range p.Files {
			for _, imp := range f.Imports {
				if strings.Contains(imp.Path.Value, "internal/evalrun") {
					t.Errorf("%s imports %s", name, imp.Path.Value)
				}
			}
		}
	}
}
