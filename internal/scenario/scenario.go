// Package scenario implements the declarative multi-experiment testbed
// scripts behind the emucheck CLI: a scenario file names a hardware
// pool and scheduling policy, a fleet of experiments (nodes, links,
// LANs, a workload), a list of timed events (swap_out, swap_in,
// checkpoint, inject, finish), and assertions checked after the run.
// Files are validated up front and replayed deterministically — the
// same file and seed always produce the same history.
//
// The format is JSON (stdlib-only):
//
//	{
//	  "name": "timeshare",
//	  "seed": 42,
//	  "pool": 4,
//	  "policy": "idle-first",
//	  "run_for": "10m",
//	  "experiments": [
//	    {"name": "e1", "workload": "sleeploop",
//	     "nodes": [{"name": "e1a", "swappable": true}]}
//	  ],
//	  "events": [
//	    {"at": "30s", "action": "swap_out", "target": "e1"}
//	  ],
//	  "assertions": [
//	    {"type": "state", "target": "e1", "want": "parked"}
//	  ]
//	}
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"emucheck/internal/emulab"
	"emucheck/internal/federation"
	"emucheck/internal/health"
	"emucheck/internal/sched"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
	"emucheck/internal/storage"
)

// File is one parsed scenario.
type File struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Seed        int64  `json:"seed"`
	Pool        int    `json:"pool"`
	Policy      string `json:"policy,omitempty"`
	// Swap selects the stateful transfer mode for parks and resumes:
	// "full" (default) moves whole images, "incremental" moves only
	// dirty deltas against the checkpoint lineage.
	Swap string `json:"swap,omitempty"`
	// Storage selects the checkpoint-chain storage tier and the
	// node-local delta cache (see docs/storage.md). Absent, chains use
	// the legacy in-process store.
	Storage *Storage `json:"storage,omitempty"`
	// SaveDeadline bounds every checkpoint epoch's save phase: a
	// member that cannot barrier in time aborts the epoch cleanly
	// (straggler detection). Defaults to 30s when a faults stanza is
	// present, otherwise off.
	SaveDeadline string       `json:"save_deadline,omitempty"`
	RunFor       string       `json:"run_for"`
	Experiments  []Experiment `json:"experiments"`
	// Search, when present, turns the run into a state-search: one
	// experiment is checkpointed and then forked into a batch of
	// concurrently exploring branch tenants (Cluster.Branch), each
	// under its own perturbation seed.
	Search *Search `json:"search,omitempty"`
	// Faults is the seeded injection plan replayed against the run:
	// node crashes, control-LAN message loss and delay, slow disks and
	// slow saves. Same file + same seed = byte-identical faulty run.
	Faults []Fault `json:"faults,omitempty"`
	// Health arms the autonomous health & remediation loop for the run:
	// per-tenant probes with hysteresis drive unattended cordon, drain,
	// and re-admission from the last committed epoch. Absent, no probe
	// events enter the simulation and runs replay byte-identically to
	// health-less builds.
	Health *Health `json:"health,omitempty"`
	// Federation turns the file into a federated-fleet scenario: one
	// synthetic tenant fleet sharded over WAN-coupled facilities and run
	// as a conservative-window parallel simulation (internal/federation).
	// Federation scenarios are self-contained — they declare no
	// experiments, events, faults, search, or storage stanzas, and only
	// the federation assertion types apply.
	Federation *Federation `json:"federation,omitempty"`
	Events     []Event     `json:"events,omitempty"`
	Assertions []Assertion `json:"assertions,omitempty"`
}

// Federation configures a federated-fleet run (see docs/scale.md,
// "federated execution"). The digest is pinned per facility count;
// workers only changes the wall clock.
type Federation struct {
	Facilities int `json:"facilities"`
	Tenants    int `json:"tenants"`
	// Workers is the facility-worker goroutine count (0 or 1 = serial;
	// any value produces the byte-identical digest).
	Workers int `json:"workers,omitempty"`
	// Lookahead is the conservative window width (default 250ms).
	Lookahead string `json:"lookahead,omitempty"`
	// WANLatency is the declared minimum inter-facility latency; it must
	// be at least the lookahead (that inequality is what makes the
	// windows safe). Default: equal to the lookahead.
	WANLatency string `json:"wan_latency,omitempty"`
	// WANMbps is the inter-facility link rate (default 1000).
	WANMbps float64 `json:"wan_mbps,omitempty"`
	// CacheMB sizes each facility's delta cache (default 64).
	CacheMB int64 `json:"cache_mb,omitempty"`
	// Migration enables cross-facility migration of parked tenants;
	// WarmUp additionally ships the chain ahead to pre-seed the
	// destination cache.
	Migration bool `json:"migration,omitempty"`
	WarmUp    bool `json:"warmup,omitempty"`
}

// Health configures the autonomous health & remediation loop. The
// policy preset sets the detection knobs; probe_ms / threshold /
// hysteresis override individual knobs of the preset.
type Health struct {
	// Policy names a detection preset: fast, balanced (default), or
	// conservative.
	Policy string `json:"policy,omitempty"`
	// ProbeMs overrides the preset's probe period, in milliseconds.
	ProbeMs float64 `json:"probe_ms,omitempty"`
	// Threshold overrides how many consecutive failed probes flag a
	// tenant unhealthy.
	Threshold int `json:"threshold,omitempty"`
	// Hysteresis overrides how many consecutive clean probes confirm it
	// healthy again.
	Hysteresis int `json:"hysteresis,omitempty"`
	// Budget is the recovery attempts a tenant gets before the
	// controller quarantines it (default 3).
	Budget int `json:"budget,omitempty"`
	// BackoffMs seeds the exponential retry backoff (default 500 ms).
	BackoffMs float64 `json:"backoff_ms,omitempty"`
	// FallbackRestart re-instantiates from scratch when the stateful
	// recover path fails (e.g. no epoch ever committed).
	FallbackRestart bool `json:"fallback_restart,omitempty"`
}

// Fault is one planned injection against a named experiment.
type Fault struct {
	// Kind is one of: crash, crash_during_save, drop, delay,
	// slow_disk, slow_save.
	Kind   string `json:"kind"`
	At     string `json:"at"`
	Target string `json:"target"`
	// Node scopes the fault to one node (required for slow_disk /
	// slow_save; optional delivery filter for drop/delay).
	Node string `json:"node,omitempty"`
	// Topic filters drop/delay to one bus topic (default "checkpoint").
	Topic string `json:"topic,omitempty"`
	// Count is the deliveries a drop fault suppresses (default 1).
	Count int `json:"count,omitempty"`
	// ExtraMs is the added latency per delivery for delay faults
	// (0 = seeded jitter up to 20 ms).
	ExtraMs float64 `json:"extra_ms,omitempty"`
	// Factor divides the perturbed rate for slow faults (default 4).
	Factor float64 `json:"factor,omitempty"`
	// For bounds the injection window (drop/delay/slow; default 30s).
	For string `json:"for,omitempty"`
	// Seed perturbs this fault's own jittered choices (0: derived from
	// the file's seed and the fault's position in the list).
	Seed int64 `json:"seed,omitempty"`
}

// Storage configures the checkpoint-chain storage tier for the run.
type Storage struct {
	// Backend names the tier: "mem" (default; the legacy in-process
	// store), "disk" (node-local snapshot disk: local costs, capacity
	// budget, overflow spills to the pool), or "remote" (shared pool
	// over the control LAN with batched puts).
	Backend string `json:"backend"`
	// CacheMB sizes the node-local delta cache fronting remotely-homed
	// segments (0 = no cache).
	CacheMB int64 `json:"cache_mb,omitempty"`
	// DiskMB caps the disk tier's snapshot-disk budget (0 = default).
	DiskMB int64 `json:"disk_mb,omitempty"`
}

// Search configures a branch fan-out exploration.
type Search struct {
	// Parent names the experiment to branch from (every node must be
	// swappable — branch state rides the checkpoint chains).
	Parent string `json:"parent"`
	// CheckpointAt is when the branch-point checkpoint is captured.
	CheckpointAt string `json:"checkpoint_at"`
	// BranchAt is when the fan-out forks (must be after CheckpointAt).
	BranchAt string `json:"branch_at"`
	// FanOut is the number of branches.
	FanOut int `json:"fan_out"`
	// Seeds perturbs each branch (len must equal fan_out if present;
	// default seeds 100, 101, ...).
	Seeds []int64 `json:"seeds,omitempty"`
	// Naive switches to the evaluation baseline: every branch stages
	// its own full copy instead of sharing the checkpoint prefix.
	Naive bool `json:"naive,omitempty"`
}

// Experiment declares one tenant: its network and its workload.
type Experiment struct {
	Name     string `json:"name"`
	Priority int    `json:"priority,omitempty"`
	// Workload is one of the built-ins: idle, sleeploop, pingpong,
	// diskchurn.
	Workload string `json:"workload"`
	// Epochs, when set, runs the committed-epoch pipeline at this
	// period: periodic transparent checkpoints whose state commits to
	// the file-server lineages, so a crash recovers from an epoch at
	// most this stale. Requires every node swappable.
	Epochs string `json:"epochs,omitempty"`
	// SubmitAt delays submission (default: submitted at the start).
	SubmitAt string `json:"submit_at,omitempty"`
	Nodes    []Node `json:"nodes"`
	Links    []Link `json:"links,omitempty"`
	LANs     []LAN  `json:"lans,omitempty"`
}

// Node declares one experiment node.
type Node struct {
	Name      string `json:"name"`
	Swappable bool   `json:"swappable"`
}

// Link declares one (possibly shaped) duplex link.
type Link struct {
	A string `json:"a"`
	B string `json:"b"`
	// BandwidthMbps caps the link (0 = unshaped); at most
	// maxBandwidthMbps, and at least 1 bit/s when positive.
	BandwidthMbps float64 `json:"bandwidth_mbps,omitempty"`
	// DelayMs is the one-way delay, at most maxDelayMs.
	DelayMs float64 `json:"delay_ms,omitempty"`
	// LossPct is the packet loss percentage, at most 100.
	LossPct float64 `json:"loss_pct,omitempty"`
}

// LAN declares a switched LAN segment.
type LAN struct {
	Name    string   `json:"name"`
	Members []string `json:"members"`
	// BandwidthMbps caps each member's access link (0 = NIC rate), with
	// the bounds of Link.BandwidthMbps.
	BandwidthMbps float64 `json:"bandwidth_mbps,omitempty"`
}

// Shaping bounds. A delay_ms becomes sim.Time nanoseconds and a
// bandwidth_mbps simnet.Bitrate bits/second, both int64 (limit about
// 9.2e18); each bound stays four orders of magnitude below it, so the
// converted value, and a delay added to the run's clock, cannot
// overflow.
const (
	maxDelayMs       = 1e9 // 1e15 ns, about 11.6 days
	maxBandwidthMbps = 1e9 // 1e15 bit/s
)

// Event is one timed action against a named experiment.
type Event struct {
	At     string `json:"at"`
	Action string `json:"action"`
	Target string `json:"target"`
}

// Assertion is one post-run check.
type Assertion struct {
	Type   string `json:"type"`
	Target string `json:"target,omitempty"`
	Node   string `json:"node,omitempty"`
	Value  int64  `json:"value,omitempty"`
	Dur    string `json:"dur,omitempty"`
	Want   string `json:"want,omitempty"`
}

// Actions understood by the runner.
var actions = map[string]bool{
	"swap_out":   true,
	"swap_in":    true,
	"checkpoint": true,
	"inject":     true,
	"finish":     true,
	// recover restores a crashed tenant from its last committed epoch;
	// restart re-runs it from scratch (the stateless baseline).
	"recover": true,
	"restart": true,
}

// faultKinds understood by the runner.
var faultKinds = map[string]bool{
	"crash":             true,
	"crash_during_save": true,
	"drop":              true,
	"delay":             true,
	"slow_disk":         true,
	"slow_save":         true,
}

// Workloads understood by the runner.
var workloads = map[string]bool{
	"idle":      true,
	"sleeploop": true,
	"pingpong":  true,
	"diskchurn": true,
	"racyelect": true,
	// Distributed agreement workloads: bully leader election with an
	// injected leader crash, and a 2PC commit group whose coordinator
	// crash leaves participants blocked in doubt.
	"quorum":    true,
	"commit2pc": true,
}

// Assertion types understood by the runner.
var assertionTypes = map[string]bool{
	"state":                 true,
	"min_ticks":             true,
	"min_checkpoints":       true,
	"min_preemptions":       true,
	"all_admitted":          true,
	"max_queue_wait":        true,
	"virtual_elapsed_max":   true,
	"utilization_min":       true,
	"max_swap_mb":           true,
	"outcome_found":         true,
	"min_distinct_outcomes": true,
	"all_branches_admitted": true,
	// Fault-tolerance assertions: the tenant recovered from its crash,
	// lost at most this much work to the recovery, and at least this
	// many epochs aborted (proof the injected fault actually bit).
	"recovered":        true,
	"max_lost_work_ms": true,
	"epochs_aborted":   true,
	// Storage-tier assertions (need a storage stanza): the delta
	// cache's hit ratio stayed at or above value percent, and chain
	// state crossing the control LAN stayed under value MB.
	"min_cache_hit_ratio": true,
	"max_remote_mb":       true,
	// Health-loop assertions (need a health stanza): the loop detected
	// the failure within value ms, brought the tenant back in service
	// within value ms of the crash, and initiated at least value
	// (default 1) unattended remediations.
	"max_detect_ms": true,
	"max_mttr_ms":   true,
	"remediated":    true,
	// Federation assertions (need a federation stanza): every tenant
	// drained, at least value cross-facility migrations happened, and
	// WAN traffic stayed under value MB.
	"all_completed":  true,
	"min_migrations": true,
	"max_wan_mb":     true,
}

// federationAssertions are the only assertion types a federation
// scenario may use (there is no cluster, search, or storage tier to
// assert against).
var federationAssertions = map[string]bool{
	"all_completed":  true,
	"min_migrations": true,
	"max_wan_mb":     true,
}

// swapModes understood by the runner.
var swapModes = map[string]bool{
	"":            true, // default: full
	"full":        true,
	"incremental": true,
}

// Parse decodes a scenario file, rejecting unknown fields (typos in a
// declarative file should fail loudly, not silently no-op).
func Parse(data []byte) (*File, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	return &f, nil
}

// parseDur converts a "30s"/"10m" string to simulated time.
func parseDur(s string) (sim.Time, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %q", s)
	}
	return sim.Time(d.Nanoseconds()), nil
}

// Spec converts an experiment declaration to a testbed spec.
func (e *Experiment) Spec() emulab.Spec {
	sp := emulab.Spec{Name: e.Name}
	for _, n := range e.Nodes {
		sp.Nodes = append(sp.Nodes, emulab.NodeSpec{Name: n.Name, Swappable: n.Swappable})
	}
	for _, l := range e.Links {
		sp.Links = append(sp.Links, emulab.LinkSpec{
			A: l.A, B: l.B,
			Bandwidth: simnet.Bitrate(l.BandwidthMbps * float64(simnet.Mbps)),
			Delay:     sim.Time(l.DelayMs * float64(sim.Millisecond)),
			Loss:      l.LossPct / 100,
		})
	}
	for _, lan := range e.LANs {
		sp.LANs = append(sp.LANs, emulab.LANSpec{
			Name: lan.Name, Members: lan.Members,
			Bandwidth: simnet.Bitrate(lan.BandwidthMbps * float64(simnet.Mbps)),
		})
	}
	return sp
}

// checkShaping reports each shaping value of a link or LAN that is
// negative, NaN or infinite or above its bound, and a positive
// bandwidth below 1 bit/s (which would convert to 0, unshaped).
func checkShaping(bad func(string, ...any), where string, bandwidthMbps, delayMs, lossPct float64) {
	for _, v := range [...]struct {
		name   string
		v, max float64
	}{{"bandwidth_mbps", bandwidthMbps, maxBandwidthMbps}, {"delay_ms", delayMs, maxDelayMs}, {"loss_pct", lossPct, 100}} {
		switch {
		case v.v < 0 || math.IsNaN(v.v) || math.IsInf(v.v, 0):
			bad("%s: %s %v must be a finite non-negative number", where, v.name, v.v)
		case v.v > v.max:
			bad("%s: %s %v exceeds %v", where, v.name, v.v, v.max)
		}
	}
	if bandwidthMbps > 0 && simnet.Bitrate(bandwidthMbps*float64(simnet.Mbps)) == 0 {
		bad("%s: bandwidth_mbps %v is below 1 bit/s (0 means unshaped)", where, bandwidthMbps)
	}
}

// Validate checks the scenario semantically; it returns every problem
// found, not just the first.
func Validate(f *File) []error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	if f.Name == "" {
		bad("scenario has no name")
	}
	if _, err := parseDur(f.RunFor); err != nil || f.RunFor == "" {
		bad("run_for %q does not parse", f.RunFor)
	}
	if f.Federation != nil {
		validateFederation(f, bad)
		return errs
	}
	if f.Pool <= 0 {
		bad("pool must be positive, got %d", f.Pool)
	}
	if _, err := sched.ParsePolicy(f.Policy); err != nil {
		bad("%v", err)
	}
	if !swapModes[f.Swap] {
		bad("unknown swap mode %q (want full or incremental)", f.Swap)
	}
	if st := f.Storage; st != nil {
		tier, err := storage.ParseTier(st.Backend, 0)
		if err != nil {
			bad("%v", err)
		}
		if st.CacheMB < 0 || st.DiskMB < 0 {
			bad("storage: negative cache_mb or disk_mb")
		}
		if err == nil && tier == nil && st.CacheMB > 0 {
			bad("storage: cache_mb needs a disk or remote backend (the in-process store has nothing remote to cache)")
		}
	}
	if _, err := parseDur(f.SaveDeadline); err != nil {
		bad("save_deadline %q does not parse", f.SaveDeadline)
	}
	if h := f.Health; h != nil {
		if _, err := health.ParsePolicy(h.Policy); err != nil {
			bad("%v", err)
		}
		if h.ProbeMs < 0 || h.BackoffMs < 0 {
			bad("health: negative probe_ms or backoff_ms")
		}
		if h.Threshold < 0 || h.Hysteresis < 0 || h.Budget < 0 {
			bad("health: negative threshold, hysteresis, or budget")
		}
	}
	if len(f.Experiments) == 0 {
		bad("no experiments")
	}

	expByName := make(map[string]*Experiment)
	nodeOwner := make(map[string]string)
	for i := range f.Experiments {
		e := &f.Experiments[i]
		if e.Name == "" {
			bad("experiment %d has no name", i)
			continue
		}
		if _, dup := expByName[e.Name]; dup {
			bad("duplicate experiment %q", e.Name)
			continue
		}
		expByName[e.Name] = e
		if len(e.Nodes) == 0 {
			bad("experiment %q has no nodes", e.Name)
		}
		if !workloads[e.Workload] {
			bad("experiment %q: unknown workload %q", e.Name, e.Workload)
		}
		if (e.Workload == "pingpong" || e.Workload == "racyelect" || e.Workload == "commit2pc") && len(e.Nodes) < 2 {
			bad("experiment %q: %s needs two nodes", e.Name, e.Workload)
		}
		if e.Workload == "quorum" && len(e.Nodes) < 3 {
			bad("experiment %q: quorum needs three nodes (a crashed leader must leave a majority)", e.Name)
		}
		if _, err := parseDur(e.SubmitAt); err != nil {
			bad("experiment %q: submit_at %q does not parse", e.Name, e.SubmitAt)
		}
		if e.Epochs != "" {
			if d, err := parseDur(e.Epochs); err != nil || d <= 0 {
				bad("experiment %q: epochs %q does not parse", e.Name, e.Epochs)
			}
			if !e.Spec().Swappable() {
				bad("experiment %q: epochs needs every node swappable (commits ride the checkpoint chains)", e.Name)
			}
		}
		local := make(map[string]bool)
		for _, n := range e.Nodes {
			if owner, taken := nodeOwner[n.Name]; taken {
				bad("node %q of %q collides with %q (node names are control-network identities)", n.Name, e.Name, owner)
				continue
			}
			nodeOwner[n.Name] = e.Name
			local[n.Name] = true
		}
		for _, l := range e.Links {
			if !local[l.A] || !local[l.B] {
				bad("experiment %q: link %s-%s references unknown node", e.Name, l.A, l.B)
			}
			checkShaping(bad, fmt.Sprintf("experiment %q: link %s-%s", e.Name, l.A, l.B), l.BandwidthMbps, l.DelayMs, l.LossPct)
		}
		for _, lan := range e.LANs {
			checkShaping(bad, fmt.Sprintf("experiment %q: LAN %s", e.Name, lan.Name), lan.BandwidthMbps, 0, 0)
			for _, m := range lan.Members {
				if !local[m] {
					bad("experiment %q: LAN %s references unknown node %s", e.Name, lan.Name, m)
				}
			}
		}
		if need := e.Spec().NodesNeeded(); need > f.Pool {
			bad("experiment %q needs %d nodes, pool is %d — it can never be admitted", e.Name, need, f.Pool)
		}
	}

	if s := f.Search; s != nil {
		parent, ok := expByName[s.Parent]
		if !ok {
			bad("search: unknown parent %q", s.Parent)
		} else {
			if !parent.Spec().Swappable() {
				bad("search: parent %q must be fully swappable (branch state rides the checkpoint chains)", s.Parent)
			}
			if s.FanOut > 0 {
				if need := parent.Spec().NodesNeeded() * s.FanOut; need > f.Pool {
					bad("search: fan-out %d needs %d nodes for gang admission, pool is %d", s.FanOut, need, f.Pool)
				}
			}
		}
		if s.FanOut <= 0 {
			bad("search: fan_out must be positive, got %d", s.FanOut)
		}
		ckAt, ckErr := parseDur(s.CheckpointAt)
		if ckErr != nil || s.CheckpointAt == "" {
			bad("search: checkpoint_at %q does not parse", s.CheckpointAt)
		}
		brAt, brErr := parseDur(s.BranchAt)
		if brErr != nil || s.BranchAt == "" {
			bad("search: branch_at %q does not parse", s.BranchAt)
		}
		if ckErr == nil && brErr == nil && brAt <= ckAt {
			bad("search: branch_at %q must come after checkpoint_at %q", s.BranchAt, s.CheckpointAt)
		}
		if len(s.Seeds) > 0 && len(s.Seeds) != s.FanOut {
			bad("search: %d seeds for fan_out %d", len(s.Seeds), s.FanOut)
		}
	}

	for i, ft := range f.Faults {
		if !faultKinds[ft.Kind] {
			bad("fault %d: unknown kind %q", i, ft.Kind)
			continue
		}
		if _, err := parseDur(ft.At); err != nil || ft.At == "" {
			bad("fault %d: at %q does not parse", i, ft.At)
		}
		if _, err := parseDur(ft.For); err != nil {
			bad("fault %d: for %q does not parse", i, ft.For)
		}
		target, ok := expByName[ft.Target]
		if !ok {
			bad("fault %d: unknown target %q", i, ft.Target)
			continue
		}
		nodeKnown := func(name string) bool {
			for _, n := range target.Nodes {
				if n.Name == name {
					return true
				}
			}
			return false
		}
		switch ft.Kind {
		case "slow_disk", "slow_save":
			if ft.Node == "" || !nodeKnown(ft.Node) {
				bad("fault %d: %s needs a node of %q, got %q", i, ft.Kind, ft.Target, ft.Node)
			}
		case "drop", "delay":
			if ft.Node != "" && !nodeKnown(ft.Node) {
				bad("fault %d: node %q is not in experiment %q", i, ft.Node, ft.Target)
			}
		}
		if ft.Factor < 0 || ft.Count < 0 || ft.ExtraMs < 0 {
			bad("fault %d: negative knob", i)
		}
	}

	for i, ev := range f.Events {
		if _, err := parseDur(ev.At); err != nil || ev.At == "" {
			bad("event %d: at %q does not parse", i, ev.At)
		}
		if !actions[ev.Action] {
			bad("event %d: unknown action %q", i, ev.Action)
		}
		target, ok := expByName[ev.Target]
		if !ok {
			bad("event %d: unknown target %q", i, ev.Target)
			continue
		}
		if (ev.Action == "swap_out" || ev.Action == "swap_in") && !target.Spec().Swappable() {
			bad("event %d: %s needs every node of %q swappable (stateful swap preserves node-local state)", i, ev.Action, ev.Target)
		}
	}

	for i, a := range f.Assertions {
		if !assertionTypes[a.Type] {
			bad("assertion %d: unknown type %q", i, a.Type)
			continue
		}
		if a.Target != "" {
			if _, ok := expByName[a.Target]; !ok {
				bad("assertion %d: unknown target %q", i, a.Target)
			}
		}
		switch a.Type {
		case "state":
			if a.Target == "" || a.Want == "" {
				bad("assertion %d: state needs target and want", i)
			}
		case "outcome_found", "min_distinct_outcomes", "all_branches_admitted":
			if f.Search == nil {
				bad("assertion %d: %s needs a search stanza", i, a.Type)
			}
			if a.Type == "outcome_found" && a.Want == "" {
				bad("assertion %d: outcome_found needs want", i)
			}
			if a.Type == "min_distinct_outcomes" && a.Value <= 0 {
				bad("assertion %d: min_distinct_outcomes needs a positive value", i)
			}
		case "min_ticks", "min_checkpoints":
			if a.Target == "" {
				bad("assertion %d: %s needs a target", i, a.Type)
			}
		case "recovered":
			if a.Target == "" {
				bad("assertion %d: recovered needs a target", i)
			}
		case "max_lost_work_ms":
			if a.Target == "" || a.Value <= 0 {
				bad("assertion %d: max_lost_work_ms needs target and a positive value (ms)", i)
			}
		case "max_detect_ms", "max_mttr_ms":
			if f.Health == nil {
				bad("assertion %d: %s needs a health stanza", i, a.Type)
			}
			if a.Target == "" || a.Value <= 0 {
				bad("assertion %d: %s needs target and a positive value (ms)", i, a.Type)
			}
		case "remediated":
			if f.Health == nil {
				bad("assertion %d: remediated needs a health stanza", i)
			}
			if a.Target == "" {
				bad("assertion %d: remediated needs a target", i)
			}
		case "epochs_aborted":
			if a.Value <= 0 {
				bad("assertion %d: epochs_aborted needs a positive value", i)
			}
		case "max_swap_mb":
			if a.Value <= 0 {
				bad("assertion %d: max_swap_mb needs a positive value (MB)", i)
			}
		case "min_cache_hit_ratio":
			if f.Storage == nil || f.Storage.CacheMB <= 0 {
				bad("assertion %d: min_cache_hit_ratio needs a storage stanza with cache_mb", i)
			}
			if a.Value <= 0 || a.Value > 100 {
				bad("assertion %d: min_cache_hit_ratio needs a value in (0, 100] percent", i)
			}
		case "max_remote_mb":
			if f.Storage == nil {
				bad("assertion %d: max_remote_mb needs a storage stanza", i)
			}
			if a.Value < 0 {
				bad("assertion %d: max_remote_mb needs a non-negative value (MB)", i)
			}
		case "max_queue_wait", "virtual_elapsed_max":
			if _, err := parseDur(a.Dur); err != nil || a.Dur == "" {
				bad("assertion %d: dur %q does not parse", i, a.Dur)
			}
			if a.Type == "virtual_elapsed_max" {
				if a.Target == "" || a.Node == "" {
					bad("assertion %d: virtual_elapsed_max needs target and node", i)
				} else if e, ok := expByName[a.Target]; ok {
					found := false
					for _, n := range e.Nodes {
						if n.Name == a.Node {
							found = true
							break
						}
					}
					if !found {
						bad("assertion %d: node %q is not in experiment %q", i, a.Node, a.Target)
					}
				}
			}
		}
	}
	return errs
}

// validateFederation checks a federation scenario: the stanza itself,
// the absence of every cluster-run stanza (the fleet is synthetic and
// there is no pool, search, or storage tier), and that only federation
// assertion types appear.
func validateFederation(f *File, bad func(string, ...any)) {
	fd := f.Federation
	if fd.Facilities <= 0 {
		bad("federation: facilities must be positive, got %d", fd.Facilities)
	}
	if fd.Tenants <= 0 {
		bad("federation: tenants must be positive, got %d", fd.Tenants)
	}
	if fd.Workers < 0 {
		bad("federation: workers must be non-negative, got %d", fd.Workers)
	}
	la, laErr := parseDur(fd.Lookahead)
	if laErr != nil {
		bad("federation: lookahead %q does not parse", fd.Lookahead)
	}
	if la == 0 {
		la = federation.DefaultLookahead
	}
	wl, wlErr := parseDur(fd.WANLatency)
	if wlErr != nil {
		bad("federation: wan_latency %q does not parse", fd.WANLatency)
	}
	if laErr == nil && wlErr == nil && fd.WANLatency != "" && wl < la {
		bad("federation: wan_latency %q below lookahead %v breaks the conservative window", fd.WANLatency, la)
	}
	if fd.WANMbps < 0 {
		bad("federation: negative wan_mbps")
	}
	if fd.CacheMB < 0 {
		bad("federation: negative cache_mb")
	}
	if f.Pool != 0 {
		bad("federation scenarios take no pool (each facility sizes its own)")
	}
	if len(f.Experiments) > 0 {
		bad("federation scenarios take no experiments (the fleet is synthetic)")
	}
	if len(f.Events) > 0 {
		bad("federation scenarios take no events")
	}
	if len(f.Faults) > 0 {
		bad("federation scenarios take no faults")
	}
	if f.Search != nil {
		bad("federation scenarios take no search stanza")
	}
	if f.Storage != nil {
		bad("federation scenarios take no storage stanza (each facility has its own cache; see cache_mb)")
	}
	if f.Health != nil {
		bad("federation scenarios take no health stanza (facilities run synthetic tenants, not probed experiments)")
	}
	for i, a := range f.Assertions {
		if !federationAssertions[a.Type] {
			bad("assertion %d: %q does not apply to a federation scenario", i, a.Type)
			continue
		}
		switch a.Type {
		case "min_migrations":
			if a.Value <= 0 {
				bad("assertion %d: min_migrations needs a positive value", i)
			}
			if fd.Facilities < 2 || !fd.Migration {
				bad("assertion %d: min_migrations needs migration enabled over at least two facilities", i)
			}
		case "max_wan_mb":
			if a.Value < 0 {
				bad("assertion %d: max_wan_mb needs a non-negative value (MB)", i)
			}
		}
	}
}
