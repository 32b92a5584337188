package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"emucheck/internal/metrics"
	"emucheck/internal/scenario"
	"emucheck/internal/scengen"
	"emucheck/internal/suite"
)

// corpusFull is how many generated scenarios one corpus round runs.
const corpusFull = 800

// warmSeed draws the set-up's warm-up scenarios, one of each shape. It
// is the same for every --seed: warming up on the seed's own first
// scenarios made the set-up time follow their size, which varies 2x
// between seeds.
const warmSeed = 0

// generate draws scenario i of the seed's corpus, with its federation
// stanza pinned to one worker (the digest does not depend on it).
func generate(seed int64, i int) *scenario.File {
	f := scengen.Generate(seed, i)
	if f.Federation != nil {
		f.Federation.Workers = 1
	}
	return f
}

// corpusRound runs one corpus round over scenarios 0..n-1 of the
// seeded scengen corpus. Set-up generates each file, pins its
// federation stanza to one worker, JSON-encodes it, parses and
// validates it, and runs one warm-up scenario of each shape (drawn at
// warmSeed) untimed. The timed phase runs every scenario through
// suite.RunOne; each is one operation, failed unless its RunReport
// passes. A traced round then runs each scenario once more through
// scenario.RunWithCluster to time it by shape and read the cluster's
// counters.
func corpusRound(seed int64, n int, tr *tracer, m *meter) (*round, error) {
	r := &round{layer: map[string]float64{}}
	var genT, parseT, validateT time.Duration
	files := make([]*scenario.File, n)

	m.begin()
	for i := range files {
		g0 := time.Now()
		sp := tr.begin("scengen.Generate")
		f := generate(seed, i)
		tr.end(sp)
		genT += time.Since(g0)
		data, err := json.Marshal(f)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", f.Name, err)
		}
		p0 := time.Now()
		sp = tr.begin("scenario.Parse")
		pf, err := scenario.Parse(data)
		tr.end(sp)
		parseT += time.Since(p0)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", f.Name, err)
		}
		v0 := time.Now()
		sp = tr.begin("scenario.Validate")
		errs := scenario.Validate(pf)
		tr.end(sp)
		validateT += time.Since(v0)
		if len(errs) > 0 {
			return nil, fmt.Errorf("validate %s: %v", f.Name, errs)
		}
		files[i] = pf
		m.tick()
	}
	for i := range scengen.Shapes {
		f := generate(warmSeed, i)
		sp := tr.begin("suite.RunOne")
		suite.RunOne(f, "generated")
		tr.end(sp)
		m.tick()
	}
	r.hostSetup, r.setup = m.end()

	var mem *memDelta
	if tr != nil {
		mem = startMem()
	}
	d := newDigest()
	var (
		runOne           []time.Duration
		waitSum          float64
		waitN            int
		mttr             []float64
		simS             float64
		committed, abort int
		lostMs, detectMs float64
		swapMB, util     float64
		l                = r.layer
	)
	m.begin()
	for _, f := range files {
		s0 := time.Now()
		sp := tr.begin("suite.RunOne")
		rr := suite.RunOne(f, "generated")
		tr.end(sp)
		runOne = append(runOne, time.Since(s0))
		m.tick()
		r.attempted++
		if !rr.Pass {
			r.failed++
			fmt.Fprintf(os.Stderr, "corpus: %s failed: %s %v\n", rr.Name, rr.Error, rr.Invariants)
			continue
		}
		d.addString(rr.Digest)
		simS += rr.SimSeconds
		res := rr.Result
		for _, e := range res.Experiments {
			waitSum += e.QueueWaitS
			waitN++
			if e.Remediations > 0 {
				mttr = append(mttr, e.MTTRMs/1e3)
			}
			committed += e.Checkpoints
			abort += e.EpochsAborted
			lostMs += e.LostWorkMs
			detectMs = max(detectMs, e.DetectMs)
			swapMB += e.SwapMB
		}
		l["sched.admissions"] += float64(res.Admissions)
		l["sched.preemptions"] += float64(res.Preemptions)
		util += res.Utilization
		l["sched.preempted_mb"] += res.PreemptedMB
		if st := res.Storage; st != nil {
			l["storage.cache_hits"] += float64(st.CacheHits)
			l["storage.cache_lookups"] += float64(st.CacheHits + st.CacheMisses)
			l["storage.local_mb"] += st.LocalMB
			l["storage.remote_mb"] += st.RemoteMB
			l["storage.spill_mb"] += st.SpillMB
		}
		if h := res.Health; h != nil {
			l["health.probes"] += float64(h.Probes)
			l["health.detections"] += float64(h.Detections)
			l["remediate.remediations"] += float64(h.Remediations)
			l["remediate.retries"] += float64(h.Retries)
		}
		if fs := res.Faults; fs != nil {
			l["fault.crashes"] += float64(fs.Crashes)
		}
		if fr := res.Federation; fr != nil {
			l["federation.windows"] += float64(fr.Windows)
			l["federation.wan_msgs"] += float64(fr.WANMsgs)
			l["federation.wan_mb"] += fr.WANMB
			l["federation.migrations"] += float64(fr.Migrations)
			l["federation.warmed_mb"] += fr.WarmedMB
		}
	}
	r.hostWall, r.wall = m.end()
	if mem != nil {
		mem.stop()
	}
	r.digest = d.sum()
	r.outage = metrics.Mean(mttr)
	if lookups := l["storage.cache_lookups"]; lookups > 0 {
		l["storage.cache_hit_ratio"] = l["storage.cache_hits"] / lookups
	}
	delete(l, "storage.cache_hits")
	delete(l, "storage.cache_lookups")
	if passed := r.attempted - r.failed; passed > 0 {
		l["sched.utilization"] = util / float64(passed)
	}
	if waitN > 0 {
		l["queue_wait_sim_s"] = waitSum / float64(waitN)
	}
	l["mttr_sim_s"] = median(mttr)
	l["makespan_sim_s"] = simS
	l["core.epochs_committed"] = float64(committed)
	l["core.epochs_aborted"] = float64(abort)
	l["health.detect_ms_max"] = detectMs
	l["recovery.lost_work_s"] = lostMs / 1e3
	l["swap.traffic_mb"] = swapMB
	l["scengen.generate_ms"] = float64(genT) / 1e6
	l["scenario.parse_ms"] = float64(parseT) / 1e6
	l["scenario.validate_ms"] = float64(validateT) / 1e6
	if tr == nil {
		return r, nil
	}

	// Traced rounds: one more execution per scenario, outside the timed
	// phase, for the per-shape run time, the audit share of RunOne and
	// the counters only the finished cluster holds.
	var events uint64
	var runSum, oneSum time.Duration
	byShape := map[string][]float64{}
	depth := 0
	for i, f := range files {
		s0 := time.Now()
		sp := tr.begin("scenario.RunWithCluster")
		res, c, err := scenario.RunWithCluster(f)
		tr.end(sp)
		took := time.Since(s0)
		if err != nil {
			return nil, fmt.Errorf("run %s: %w", f.Name, err)
		}
		runSum += took
		oneSum += runOne[i]
		shape := scengen.Shapes[i%len(scengen.Shapes)]
		byShape[shape] = append(byShape[shape], float64(took)/1e6)
		if c == nil {
			events += res.Federation.Events
			continue
		}
		events += c.S.Fired()
		depth = max(depth, c.S.Pending())
		l["notify.published"] += float64(c.TB.Bus.Published)
		l["notify.delivered"] += float64(c.TB.Bus.Delivered)
		if c.SwapStats != nil {
			l["swap.memory_mb"] += mb(c.SwapStats.Get("out.mem_bytes"))
			l["swap.merged_mb"] += mb(c.SwapStats.Get("merged_bytes"))
			l["swap.in_delta_mb"] += mb(c.SwapStats.Get("in.disk_bytes"))
		}
	}
	// RunOne executes each scenario twice.
	mem.record(l, float64(2*events))
	l["sim.events"] = float64(events)
	l["sim.ns_per_event"] = float64(runSum) / float64(events)
	l["sim.queue_depth_max"] = float64(depth)
	for shape, ms := range byShape {
		l["scenario.run_ms."+shape] = median(ms)
	}
	l["suite.audit_ms"] = float64(oneSum-2*runSum) / 1e6 / float64(len(files))
	return r, nil
}
