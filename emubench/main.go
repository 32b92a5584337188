// Command emubench is emucheck's benchmark. It drives one of three
// closed-loop workloads through the library's public API from a single
// goroutine, checks the outputs, and prints the metrics as one JSON
// line:
//
//	emubench --workload packet-ckpt|corpus|fleet --seed N --seconds S --trace 0|1
//
// A run repeats the workload's round (set-up, then the timed phase) on
// the same seeded inputs until --seconds are used, and reports medians
// over the rounds, with host times given at a reference speed measured
// by an interleaved probe (probe.go). With --trace 1 every second round
// is traced: spans around each public call, a CPU profile split by
// package, and the per-layer counters; the spans are written as Chrome
// trace-event JSON under .bench_build. With --steady N it instead runs
// every workload (or only --workload) N times as child processes,
// alternating the order, and prints each metric's quartiles; the seeds
// are seed..seed+N-1, or --seed every time with --same-seed. See
// README.md for the workloads and the metric map.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir is where traced runs write their span files, relative to the
// directory the benchmark runs in (the repository root).
const outDir = ".bench_build"

// round is one set-up plus one timed phase of a workload. setup and
// wall are at the reference speed (probe.go), hostSetup and hostWall as
// the host clock read them.
type round struct {
	setup, wall         time.Duration
	hostSetup, hostWall time.Duration
	attempted, failed   int
	digest              uint64
	// outage is the simulated time an experiment spends out of service
	// in the workload's headline control-plane operation (README.md).
	outage float64
	// layer holds per-layer values; host-time ones are only
	// meaningful from traced rounds.
	layer map[string]float64
}

// workload is one benchmark workload: run performs a round at the
// given seed, recording spans into tr when it is not nil and timing its
// phases with m.
type workload struct {
	name string
	run  func(seed int64, tr *tracer, m *meter) (*round, error)
}

var workloads = []workload{
	{"packet-ckpt", func(seed int64, tr *tracer, m *meter) (*round, error) { return packetRound(seed, packetFull, tr, m) }},
	{"corpus", func(seed int64, tr *tracer, m *meter) (*round, error) { return corpusRound(seed, corpusFull, tr, m) }},
	{"fleet", func(seed int64, tr *tracer, m *meter) (*round, error) { return fleetRound(seed, fleetFull, tr, m) }},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emubench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: packet-ckpt, corpus or fleet")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "how long one run measures")
	trace := fs.Int("trace", 0, "1: a traced run that prints the per-layer metrics")
	steady := fs.Int("steady", 0, "run every workload (or --workload) this many times, seeds seed..seed+N-1, and print quartiles")
	sameSeed := fs.Bool("same-seed", false, "with --steady: run every time at --seed, so the spread is run-to-run noise only")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *steady > 0 {
		ws := workloads
		if *name != "" {
			w, ok := findWorkload(*name)
			if !ok {
				fmt.Fprintf(stderr, "emubench: unknown workload %q\n", *name)
				return 2
			}
			ws = []workload{w}
		}
		if err := steadiness(ws, *steady, *seed, *sameSeed, *seconds, stdout); err != nil {
			fmt.Fprintln(stderr, "emubench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "emubench: need --workload (packet-ckpt, corpus or fleet), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "emubench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "emubench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// measure repeats w's round until the time budget is used and reduces
// the rounds to the run's metrics. In a traced run the odd rounds are
// traced and the even ones are the untraced baseline for the overhead.
func measure(w workload, seed int64, budget time.Duration, traced bool, stdout io.Writer) (*result, error) {
	var (
		rounds    []*round
		probes    []float64
		tr        *tracer
		cpu       = map[string]int64{}
		m         = &meter{probing: !traced}
		minRounds = 1
	)
	if traced {
		tr, minRounds = newTracer(), 2
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		var r *round
		var err error
		if traced && i%2 == 1 {
			prof := filepath.Join(outDir, fmt.Sprintf("cpu-%s-seed%d-round%d.pprof", w.name, seed, i))
			r, err = profiled(prof, cpu, func() (*round, error) { return w.run(seed, tr, m) })
		} else {
			r, err = w.run(seed, nil, m)
		}
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, i, err)
		}
		rounds = append(rounds, r)
		probes = append(probes, float64(m.mean)/1e6)
		fmt.Fprintf(os.Stderr, "%s round %d: setup %.4fs, timed %.4fs (host %.4fs, %.4fs)\n",
			w.name, i, r.setup.Seconds(), r.wall.Seconds(), r.hostSetup.Seconds(), r.hostWall.Seconds())
		if len(rounds) >= minRounds && time.Since(start)+time.Since(t0) > budget {
			break
		}
	}

	res := &result{Correct: true, Metrics: map[string]value{}}
	var setups, walls, hostSetups, hostWalls []float64
	for _, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.digest != rounds[0].digest || r.outage != rounds[0].outage {
			res.Correct = false // same inputs must replay to the same statistics
		}
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
		hostSetups = append(hostSetups, r.hostSetup.Seconds())
		hostWalls = append(hostWalls, r.hostWall.Seconds())
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	fmt.Fprintf(stdout, "workload %s seed %d rounds %d digest %016x\n", w.name, seed, len(rounds), rounds[0].digest)
	if !traced {
		res.Metrics["wall_s"] = value{median(walls), "s"}
		res.Metrics["setup_s"] = value{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = value{peakRSSMB(), "MB"}
		res.Metrics["outage_sim_s"] = value{rounds[0].outage, "s"}
		fmt.Fprintf(stdout, "host clock: wall %.4f s, setup %.4f s; probe %.3f ms (%v at reference speed)\n",
			median(hostWalls), median(hostSetups), median(probes), probeNominal)
		for _, m := range simOutcomes {
			if v := rounds[0].layer[m.name]; v != 0 {
				fmt.Fprintf(stdout, "%-16s %.6g %s\n", m.name, v, m.unit)
			}
		}
		return res, nil
	}

	// Per-layer metrics: medians over the traced (odd) rounds.
	var base, with []float64
	vals := map[string][]float64{}
	for i, r := range rounds {
		if i%2 == 0 {
			base = append(base, r.wall.Seconds())
			continue
		}
		with = append(with, r.wall.Seconds())
		for _, m := range perLayer {
			vals[m.name] = append(vals[m.name], r.layer[m.name])
		}
	}
	layer := map[string]float64{}
	for name, vs := range vals {
		layer[name] = median(vs)
	}
	var cpuTotal int64
	for _, v := range cpu {
		cpuTotal += v
	}
	for _, b := range cpuBuckets {
		if cpuTotal > 0 {
			layer["cpu."+b] = 100 * float64(cpu[b]) / float64(cpuTotal)
		}
	}
	layer["trace.wall_s"] = median(with)
	layer["trace.overhead_pct"] = 100 * (median(with) - median(base)) / median(base)
	for _, m := range perLayer {
		res.Metrics[m.name] = value{layer[m.name], m.unit}
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", m.name, layer[m.name], m.unit)
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := tr.writeChrome(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(stdout, "spans %d written to %s; tracing overhead %.2f%% (traced %.4fs, untraced %.4fs)\n",
		len(tr.spans), path, layer["trace.overhead_pct"], median(with), median(base))
	return res, nil
}

// profiled runs fn under the CPU profiler, writes the profile to path
// and adds its per-package self time to cpu.
func profiled(path string, cpu map[string]int64, fn func() (*round, error)) (*round, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	r, err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return r, addCPUProfile(path, cpu)
}

// memDelta samples the Go runtime's allocation counters around a timed
// phase.
type memDelta struct{ before, after runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// stop samples the counters at the end of the timed phase.
func (m *memDelta) stop() { runtime.ReadMemStats(&m.after) }

// record stores the phase's allocations per simulated event and its GC
// cycles in layer.
func (m *memDelta) record(layer map[string]float64, events float64) {
	if events > 0 {
		layer["runtime.allocs_per_event"] = float64(m.after.Mallocs-m.before.Mallocs) / events
		layer["runtime.alloc_bytes_per_event"] = float64(m.after.TotalAlloc-m.before.TotalAlloc) / events
	}
	layer["runtime.gc_cycles"] = float64(m.after.NumGC - m.before.NumGC)
	layer["runtime.gc_cpu_fraction"] = m.after.GCCPUFraction
}

// peakRSSMB reports the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// digest folds a round's simulated statistics into an FNV-64a hash.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) add(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d *digest) addString(s string) { d.h.Write([]byte(s)) }

func (d *digest) sum() uint64 { return d.h.Sum64() }

// steadiness runs each of ws n times as child processes of this
// binary, at seeds seed, seed+1, ... (or always at seed, with same),
// alternating the workload order between iterations, and prints each
// end-to-end metric's median, quartiles and spread (interquartile range
// over median).
func steadiness(ws []workload, n int, seed int64, same bool, seconds float64, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string]map[string][]float64{}
	ops := map[string][2]int{}
	for i := 0; i < n; i++ {
		order := append([]workload(nil), ws...)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			s := seed
			if !same {
				s += int64(i)
			}
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			var so bytes.Buffer
			cmd.Stdout, cmd.Stderr = &so, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			text, res, err := splitResult(so.String())
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			fmt.Fprint(stdout, text)
			if !res.Correct {
				return fmt.Errorf("%s seed %d: incorrect result (%d of %d operations failed)", w.name, s, res.Failed, res.Attempted)
			}
			if vals[w.name] == nil {
				vals[w.name] = map[string][]float64{}
			}
			for k, v := range res.Metrics {
				vals[w.name][k] = append(vals[w.name][k], v.Value)
			}
			o := ops[w.name]
			ops[w.name] = [2]int{o[0] + res.Attempted, o[1] + res.Failed}
			fmt.Fprintf(stdout, "run %d %-12s seed %-4d wall_s %.4f setup_s %.4f\n", i, w.name, s,
				res.Metrics["wall_s"].Value, res.Metrics["setup_s"].Value)
		}
	}
	fmt.Fprintf(stdout, "%-12s %-12s %-4s %12s %12s %12s %8s\n", "workload", "metric", "unit", "q1", "median", "q3", "spread")
	for _, w := range ws {
		for _, m := range endToEnd {
			q1, q2, q3 := quartiles(vals[w.name][m.name])
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			fmt.Fprintf(stdout, "%-12s %-12s %-4s %12.6g %12.6g %12.6g %7.2f%%\n", w.name, m.name, m.unit, q1, q2, q3, 100*spread)
		}
		fmt.Fprintf(stdout, "%-12s attempted %d failed %d\n", w.name, ops[w.name][0], ops[w.name][1])
	}
	return nil
}

// splitResult splits a run's output into its text lines and the result
// line it prints last.
func splitResult(out string) (string, *result, error) {
	out = strings.TrimRight(out, "\n")
	i := strings.LastIndexByte(out, '\n') + 1
	var res result
	if err := json.Unmarshal([]byte(out[i:]), &res); err != nil {
		return "", nil, fmt.Errorf("no result line: %w", err)
	}
	return out[:i], &res, nil
}
