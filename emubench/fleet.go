package main

import "emucheck/internal/federation"

// fleetFull is the fleet workload: 10k tenants over four facilities
// with migration and warm-up on, run serially (one facility worker).
var fleetFull = federation.Config{
	Facilities: 4, Tenants: 10000, Workers: 1, Migration: true, WarmUp: true,
}

// fleetRound runs one fleet round: set-up is federation.New (placement,
// initial chain commits, every submit); the timed phase is Run. Each
// tenant is one operation, failed unless it completed by the horizon.
func fleetRound(seed int64, cfg federation.Config, tr *tracer, m *meter) (*round, error) {
	r := &round{layer: map[string]float64{}}
	cfg.Seed = seed
	m.begin()
	sp := tr.begin("federation.New")
	fed := federation.New(cfg)
	tr.end(sp)
	r.hostSetup, r.setup = m.end()

	depth := 0
	for _, fac := range fed.Facilities {
		depth = max(depth, fac.S.Pending())
		fac.Sched.Instrument = tr != nil
	}
	var mem *memDelta
	if tr != nil {
		mem = startMem()
	}
	m.begin()
	sp = tr.begin("Federation.Run")
	res := fed.Run()
	tr.end(sp)
	r.hostWall, r.wall = m.end()
	if mem != nil {
		mem.stop()
		mem.record(r.layer, float64(res.Events))
	}

	r.attempted = res.Tenants
	r.failed = res.Tenants - res.Completed
	d := newDigest()
	d.addString(res.Digest)
	r.digest = d.sum()

	l := r.layer
	var admissions, preemptions, preempted, kicks, decisionNs int64
	var util, wait float64
	var hits, lookups int64
	var published, delivered uint64
	for _, fac := range fed.Facilities {
		depth = max(depth, fac.S.Pending())
		s := fac.Sched
		admissions += int64(s.Admissions)
		preemptions += int64(s.Preemptions)
		preempted += s.PreemptedBytes
		kicks += int64(s.Kicks)
		decisionNs += s.DecisionNanos
		util += s.Utilization() / float64(len(fed.Facilities))
		wait += s.MeanQueueWait().Seconds() / float64(len(fed.Facilities))
		cs := fac.Cache.Stats()
		hits += cs.Hits
		lookups += cs.Hits + cs.Misses
		published += fac.Bus.Published
		delivered += fac.Bus.Delivered
	}
	r.outage = wait
	l["queue_wait_sim_s"] = wait
	l["makespan_sim_s"] = res.SimS
	l["sim.events"] = float64(res.Events)
	l["sim.ns_per_event"] = float64(r.hostWall) / float64(res.Events)
	l["sim.queue_depth_max"] = float64(depth)
	l["notify.published"] = float64(published)
	l["notify.delivered"] = float64(delivered)
	if lookups > 0 {
		l["storage.cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	l["storage.local_mb"] = res.LocalMB
	l["storage.remote_mb"] = res.RemoteMB
	l["sched.admissions"] = float64(admissions)
	l["sched.preemptions"] = float64(preemptions)
	l["sched.utilization"] = util
	l["sched.preempted_mb"] = mb(preempted)
	l["sched.decisions"] = float64(kicks)
	if kicks > 0 {
		l["sched.decision_us"] = float64(decisionNs) / float64(kicks) / 1e3
	}
	l["federation.windows"] = float64(res.Windows)
	l["federation.wan_msgs"] = float64(res.WANMsgs)
	l["federation.wan_mb"] = res.WANMB
	l["federation.migrations"] = float64(res.Migrations)
	l["federation.warmed_mb"] = res.WarmedMB
	return r, nil
}
