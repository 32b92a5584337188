package scenario

import (
	"fmt"
	"strings"

	"emucheck"
	"emucheck/internal/apps"
	"emucheck/internal/core"
	"emucheck/internal/fault"
	"emucheck/internal/sim"
)

// The scenario file's four vocabularies (assertion types, event
// actions, workloads and fault kinds) are each declared once, below.
// An entry holds both what Validate requires of a file that uses it and
// what the runner does with it, so a Validate-clean file names only
// verbs the runner implements.

// needSet is what an assertion type requires of its assertion and of
// the file; Validate enforces it.
type needSet uint16

const (
	needTarget     needSet = 1 << iota // a target experiment
	needWant                           // a want string
	needNode                           // a node name
	needValue                          // a positive value
	needDur                            // a dur that parses
	needSearch                         // a search stanza
	needHealth                         // a health stanza
	needStorage                        // a storage stanza
	needCache                          // a storage stanza with cache_mb
	needFederation                     // a federation stanza; other types are rejected there
)

// assertionType is one post-run check.
type assertionType struct {
	needs needSet
	unit  string // of the positive value, as its error message says it
	// rule, if set, checks what needs cannot express; it returns the
	// problem, or "" if there is none.
	rule  func(f *File, a Assertion) string
	check func(r run, a Assertion) Check
}

// fields names the assertion fields at requires, as Validate's error
// message lists them.
func (at *assertionType) fields() string {
	var parts []string
	for _, p := range [...]struct {
		need needSet
		name string
	}{{needTarget, "target"}, {needWant, "want"}, {needNode, "node"}, {needValue, "a positive value" + at.unit}} {
		if at.needs&p.need != 0 {
			parts = append(parts, p.name)
		}
	}
	if len(parts) == 1 && parts[0] == "target" {
		return "a target"
	}
	return strings.Join(parts, " and ")
}

// run is a finished scenario run as the assertion checks read it. A
// federation run has no cluster: its checks read res.Federation.
type run struct {
	c     *emucheck.Cluster
	f     *File
	stats []*ExpStats
	res   *Result
}

// session is the assertion's target tenant (nil without a target or
// before submission).
func (r run) session(a Assertion) *emucheck.Session {
	if a.Target == "" {
		return nil
	}
	return r.c.Tenant(a.Target)
}

// judge evaluates the file's assertions against the finished run; the
// run passes when every check holds and no event failed.
func (r run) judge() {
	for _, a := range r.f.Assertions {
		r.res.Checks = append(r.res.Checks, assertionTypes[a.Type].check(r, a))
	}
	r.res.Pass = len(r.res.EventErrors) == 0
	for _, ch := range r.res.Checks {
		r.res.Pass = r.res.Pass && ch.Ok
	}
}

// nonNegativeMB is the rule of the MB budgets: zero is a valid budget.
func nonNegativeMB(_ *File, a Assertion) string {
	if a.Value < 0 {
		return a.Type + " needs a non-negative value (MB)"
	}
	return ""
}

// assertionTypes is the assertion vocabulary, cluster and federation
// types together.
var assertionTypes = map[string]assertionType{
	"state": {needs: needTarget | needWant, check: func(r run, a Assertion) Check {
		got := "unsubmitted"
		if sess := r.session(a); sess != nil {
			got = sess.State()
		}
		return mkCheck(fmt.Sprintf("%s state == %s", a.Target, a.Want), got == a.Want, "got "+got)
	}},
	"min_ticks": {needs: needTarget, check: func(r run, a Assertion) Check {
		got := r.stats[expIndex(r.f, a.Target)].Ticks
		return mkCheck(fmt.Sprintf("%s ticks >= %d", a.Target, a.Value), got >= a.Value, fmt.Sprintf("got %d", got))
	}},
	"min_checkpoints": {needs: needTarget, check: func(r run, a Assertion) Check {
		got := r.stats[expIndex(r.f, a.Target)].Checkpoints
		return mkCheck(fmt.Sprintf("%s checkpoints >= %d", a.Target, a.Value), int64(got) >= a.Value, fmt.Sprintf("got %d", got))
	}},
	"min_preemptions": {check: func(r run, a Assertion) Check {
		got := r.c.Sched.Preemptions
		desc := fmt.Sprintf("preemptions >= %d", a.Value)
		if sess := r.session(a); sess != nil {
			got = sess.Preemptions()
			desc = fmt.Sprintf("%s preemptions >= %d", a.Target, a.Value)
		}
		return mkCheck(desc, int64(got) >= a.Value, fmt.Sprintf("got %d", got))
	}},
	// Branch tenants are counted by all_branches_admitted; all_admitted
	// covers the experiments declared in the file.
	"all_admitted": {check: func(r run, _ Assertion) Check {
		for i := range r.f.Experiments {
			t := r.c.Tenant(r.f.Experiments[i].Name)
			if t == nil {
				return mkCheck("all experiments admitted", false, r.f.Experiments[i].Name+" never submitted")
			}
			if t.Admissions() == 0 {
				return mkCheck("all experiments admitted", false, t.Scenario.Spec.Name+" never admitted")
			}
		}
		return mkCheck("all experiments admitted", true, fmt.Sprintf("%d experiments", len(r.f.Experiments)))
	}},
	"max_queue_wait": {needs: needDur, check: func(r run, a Assertion) Check {
		lim, _ := parseDur(a.Dur)
		sess := r.session(a)
		worstName, worst := "", sim.Time(0)
		for _, t := range r.c.Tenants() {
			if a.Target != "" && t != sess {
				continue
			}
			if w := t.QueueWait(); w > worst {
				worst, worstName = w, t.Scenario.Spec.Name
			}
		}
		return mkCheck(fmt.Sprintf("queue wait <= %s", a.Dur), worst <= lim,
			fmt.Sprintf("worst %v (%s)", worst, worstName))
	}},
	"virtual_elapsed_max": {needs: needTarget | needNode | needDur,
		rule: func(f *File, a Assertion) string {
			if i := expIndex(f, a.Target); i >= 0 && a.Node != "" && !f.Experiments[i].hasNode(a.Node) {
				return fmt.Sprintf("node %q is not in experiment %q", a.Node, a.Target)
			}
			return ""
		},
		check: func(r run, a Assertion) Check {
			lim, _ := parseDur(a.Dur)
			desc := fmt.Sprintf("%s/%s virtual <= %s", a.Target, a.Node, a.Dur)
			sess := r.session(a)
			if sess == nil || sess.Exp == nil {
				state := "unsubmitted"
				if sess != nil {
					state = sess.State()
				}
				return mkCheck(desc, false, "experiment is "+state)
			}
			got := sess.VirtualNow(a.Node)
			return mkCheck(desc, got <= lim, fmt.Sprintf("got %v (real %v)", got, r.c.Now()))
		}},
	"utilization_min": {check: func(r run, a Assertion) Check {
		got := r.c.Utilization() * 100
		return mkCheck(fmt.Sprintf("pool utilization >= %d%%", a.Value), got >= float64(a.Value),
			fmt.Sprintf("got %.0f%%", got))
	}},
	"max_swap_mb": {needs: needValue, unit: " (MB)", check: func(r run, a Assertion) Check {
		gotBytes := int64(r.c.TB.Server.Received + r.c.TB.Server.Served)
		desc := fmt.Sprintf("swap traffic <= %d MB", a.Value)
		if a.Target != "" {
			gotBytes = r.c.TB.Server.ByTag[a.Target]
			desc = fmt.Sprintf("%s swap traffic <= %d MB", a.Target, a.Value)
		}
		gotMB := float64(gotBytes) / (1 << 20)
		return mkCheck(desc, gotMB <= float64(a.Value), fmt.Sprintf("got %.1f MB", gotMB))
	}},

	// Search assertions.
	"outcome_found": {needs: needSearch | needWant, check: func(r run, a Assertion) Check {
		desc := fmt.Sprintf("outcome %q explored", a.Want)
		var seen []string
		for _, b := range r.res.Search.Branches {
			if b.Outcome == a.Want {
				return mkCheck(desc, true, "by "+b.Name)
			}
			if b.Outcome != "" {
				seen = append(seen, b.Outcome)
			}
		}
		return mkCheck(desc, false, fmt.Sprintf("saw %v", seen))
	}},
	"min_distinct_outcomes": {needs: needSearch | needValue, check: func(r run, a Assertion) Check {
		got := r.res.Search.DistinctOutcomes
		return mkCheck(fmt.Sprintf("distinct outcomes >= %d", a.Value), int64(got) >= a.Value, fmt.Sprintf("got %d", got))
	}},
	"all_branches_admitted": {needs: needSearch, check: func(r run, _ Assertion) Check {
		const desc = "all branches admitted"
		sr := r.res.Search
		if len(sr.Branches) != sr.FanOut {
			return mkCheck(desc, false, fmt.Sprintf("%d of %d branches forked", len(sr.Branches), sr.FanOut))
		}
		for _, b := range sr.Branches {
			if t := r.c.Tenant(b.Name); t == nil || t.Admissions() == 0 {
				return mkCheck(desc, false, b.Name+" never admitted")
			}
		}
		return mkCheck(desc, true, fmt.Sprintf("%d branches", len(sr.Branches)))
	}},

	// Fault-tolerance assertions: the tenant recovered from its crash,
	// lost at most this much work to the recovery, and at least this
	// many epochs aborted (proof the injected fault actually bit).
	"recovered": {needs: needTarget, check: func(r run, a Assertion) Check {
		want := max(a.Value, 1)
		desc := fmt.Sprintf("%s recovered >= %d times", a.Target, want)
		sess := r.session(a)
		if sess == nil {
			return mkCheck(desc, false, "never submitted")
		}
		return mkCheck(desc, int64(sess.Recoveries()) >= want,
			fmt.Sprintf("got %d (state %s)", sess.Recoveries(), sess.State()))
	}},
	"max_lost_work_ms": {needs: needTarget | needValue, unit: " (ms)", check: func(r run, a Assertion) Check {
		desc := fmt.Sprintf("%s lost work <= %d ms", a.Target, a.Value)
		sess := r.session(a)
		if sess == nil {
			return mkCheck(desc, false, "never submitted")
		}
		got := sess.LostWork().Millis()
		return mkCheck(desc, got <= float64(a.Value), fmt.Sprintf("got %.0f ms", got))
	}},
	"epochs_aborted": {needs: needValue, check: func(r run, a Assertion) Check {
		got := 0
		desc := fmt.Sprintf("epochs aborted >= %d", a.Value)
		if a.Target != "" {
			desc = fmt.Sprintf("%s epochs aborted >= %d", a.Target, a.Value)
			if sess := r.session(a); sess != nil {
				got = sess.EpochsAborted()
			}
		} else {
			for _, t := range r.c.Tenants() {
				got += t.EpochsAborted()
			}
		}
		return mkCheck(desc, int64(got) >= a.Value, fmt.Sprintf("got %d", got))
	}},

	// Storage-tier assertions: the delta cache's hit ratio stayed at or
	// above value percent, and chain state crossing the control LAN
	// stayed under value MB.
	"min_cache_hit_ratio": {needs: needCache,
		rule: func(_ *File, a Assertion) string {
			if a.Value <= 0 || a.Value > 100 {
				return "min_cache_hit_ratio needs a value in (0, 100] percent"
			}
			return ""
		},
		check: func(r run, a Assertion) Check {
			st := r.res.Storage
			gotPct := st.HitRatio * 100
			return mkCheck(fmt.Sprintf("cache hit ratio >= %d%%", a.Value), gotPct >= float64(a.Value),
				fmt.Sprintf("got %.0f%% (%d hits / %d misses)", gotPct, st.CacheHits, st.CacheMisses))
		}},
	"max_remote_mb": {needs: needStorage, rule: nonNegativeMB, check: func(r run, a Assertion) Check {
		got := r.res.Storage.RemoteMB
		return mkCheck(fmt.Sprintf("remote chain traffic <= %d MB", a.Value), got <= float64(a.Value),
			fmt.Sprintf("got %.1f MB", got))
	}},

	// Health-loop assertions: the loop detected the failure within value
	// ms, brought the tenant back in service within value ms of the
	// crash, and initiated at least value (default 1) unattended
	// remediations.
	"max_detect_ms": {needs: needHealth | needTarget | needValue, unit: " (ms)", check: func(r run, a Assertion) Check {
		desc := fmt.Sprintf("%s detected <= %d ms after crash", a.Target, a.Value)
		sess := r.session(a)
		if sess == nil {
			return mkCheck(desc, false, "never submitted")
		}
		if sess.Detections() == 0 {
			return mkCheck(desc, false, "never detected")
		}
		got := sess.MaxDetectLatency().Millis()
		return mkCheck(desc, got <= float64(a.Value), fmt.Sprintf("got %.0f ms", got))
	}},
	"max_mttr_ms": {needs: needHealth | needTarget | needValue, unit: " (ms)", check: func(r run, a Assertion) Check {
		desc := fmt.Sprintf("%s back in service <= %d ms after crash", a.Target, a.Value)
		sess := r.session(a)
		if sess == nil {
			return mkCheck(desc, false, "never submitted")
		}
		if sess.MaxMTTR() == 0 {
			return mkCheck(desc, false, fmt.Sprintf("never recovered (state %s)", sess.State()))
		}
		got := sess.MaxMTTR().Millis()
		return mkCheck(desc, got <= float64(a.Value), fmt.Sprintf("got %.0f ms", got))
	}},
	"remediated": {needs: needHealth | needTarget, check: func(r run, a Assertion) Check {
		want := max(a.Value, 1)
		desc := fmt.Sprintf("%s remediated >= %d times unattended", a.Target, want)
		sess := r.session(a)
		if sess == nil {
			return mkCheck(desc, false, "never submitted")
		}
		return mkCheck(desc, int64(sess.Remediations()) >= want && !sess.Quarantined(),
			fmt.Sprintf("got %d (state %s, quarantined %v)", sess.Remediations(), sess.State(), sess.Quarantined()))
	}},

	// Federation assertions: every tenant drained, at least value
	// cross-facility migrations happened, and WAN traffic stayed under
	// value MB.
	"all_completed": {needs: needFederation, check: func(r run, _ Assertion) Check {
		fr := r.res.Federation
		return mkCheck("all tenants completed", fr.Completed == fr.Tenants, fmt.Sprintf("%d of %d", fr.Completed, fr.Tenants))
	}},
	"min_migrations": {needs: needFederation | needValue,
		rule: func(f *File, _ Assertion) string {
			if f.Federation.Facilities < 2 || !f.Federation.Migration {
				return "min_migrations needs migration enabled over at least two facilities"
			}
			return ""
		},
		check: func(r run, a Assertion) Check {
			got := r.res.Federation.Migrations
			return mkCheck(fmt.Sprintf("migrations >= %d", a.Value), int64(got) >= a.Value, fmt.Sprintf("got %d", got))
		}},
	"max_wan_mb": {needs: needFederation, rule: nonNegativeMB, check: func(r run, a Assertion) Check {
		got := r.res.Federation.WANMB
		return mkCheck(fmt.Sprintf("WAN traffic <= %d MB", a.Value), got <= float64(a.Value), fmt.Sprintf("got %.1f MB", got))
	}},
}

// validateAssertions checks every assertion against its type's needs.
// exps maps the file's experiment names (nil for a federation file).
func validateAssertions(f *File, exps map[string]*Experiment, bad func(string, ...any)) {
	for i, a := range f.Assertions {
		at, ok := assertionTypes[a.Type]
		switch {
		case !ok:
			bad("assertion %d: unknown type %q", i, a.Type)
			continue
		case f.Federation != nil && at.needs&needFederation == 0:
			bad("assertion %d: %q does not apply to a federation scenario", i, a.Type)
			continue
		case f.Federation == nil && at.needs&needFederation != 0:
			bad("assertion %d: %s needs a federation stanza", i, a.Type)
			continue
		}
		if _, ok := exps[a.Target]; a.Target != "" && !ok {
			bad("assertion %d: unknown target %q", i, a.Target)
		}
		if at.needs&needSearch != 0 && f.Search == nil {
			bad("assertion %d: %s needs a search stanza", i, a.Type)
		}
		if at.needs&needHealth != 0 && f.Health == nil {
			bad("assertion %d: %s needs a health stanza", i, a.Type)
		}
		if at.needs&needStorage != 0 && f.Storage == nil {
			bad("assertion %d: %s needs a storage stanza", i, a.Type)
		}
		if at.needs&needCache != 0 && (f.Storage == nil || f.Storage.CacheMB <= 0) {
			bad("assertion %d: %s needs a storage stanza with cache_mb", i, a.Type)
		}
		if at.needs&needTarget != 0 && a.Target == "" || at.needs&needWant != 0 && a.Want == "" ||
			at.needs&needNode != 0 && a.Node == "" || at.needs&needValue != 0 && a.Value <= 0 {
			bad("assertion %d: %s needs %s", i, a.Type, at.fields())
		}
		if at.needs&needDur != 0 {
			if _, err := parseDur(a.Dur); err != nil || a.Dur == "" {
				bad("assertion %d: dur %q does not parse", i, a.Dur)
			}
		}
		if at.rule != nil {
			if msg := at.rule(f, a); msg != "" {
				bad("assertion %d: %s", i, msg)
			}
		}
	}
}

// workload is one built-in experiment workload.
type workload struct {
	minNodes int
	nodes    string // the node floor, as Validate's error message says it
	// setup returns the session Setup installing the workload; every
	// workload reports activity to the scheduler (the IdleFirst signal)
	// and counts progress ticks for assertions. Setup reruns from scratch
	// if the cluster readmits the experiment statelessly. Node names are
	// the experiment's logical names and activity is reported on the
	// session's own job, so the same setup installs unchanged on a branch
	// session (its node names resolve through the branch alias).
	setup func(c *emucheck.Cluster, e *Experiment, st *ExpStats) func(*emucheck.Session)
}

// workloads is the workload vocabulary.
var workloads = map[string]workload{
	"idle": {setup: func(*emucheck.Cluster, *Experiment, *ExpStats) func(*emucheck.Session) { return nil }},
	"sleeploop": {setup: func(_ *emucheck.Cluster, e *Experiment, st *ExpStats) func(*emucheck.Session) {
		first := e.Nodes[0].Name
		return func(s *emucheck.Session) {
			k := s.Kernel(first)
			var tick func()
			tick = func() {
				st.Ticks++
				s.Touch()
				k.Usleep(100*sim.Millisecond, tick)
			}
			k.Usleep(100*sim.Millisecond, tick)
		}
	}},
	"pingpong": {minNodes: 2, nodes: "two nodes", setup: func(_ *emucheck.Cluster, e *Experiment, st *ExpStats) func(*emucheck.Session) {
		a, b := e.Nodes[0].Name, e.Nodes[1].Name
		return func(s *emucheck.Session) {
			// Pace the exchange: an RPC every 50 ms, not a raw-fabric
			// packet storm.
			apps.RunPingPong(s.Kernel(a), s.Kernel(b), s.Addr(a), s.Addr(b), 50*sim.Millisecond, func(int) {
				st.Ticks++
				s.Touch()
			})
		}
	}},
	"diskchurn": {setup: func(_ *emucheck.Cluster, e *Experiment, st *ExpStats) func(*emucheck.Session) {
		first := e.Nodes[0].Name
		return func(s *emucheck.Session) {
			k := s.Kernel(first)
			var off int64
			var write, wrote func()
			write = func() { k.WriteDisk(1<<30+off%(1<<30), 512<<10, wrote) }
			wrote = func() {
				off += 512 << 10
				st.Ticks++
				s.Touch()
				k.Usleep(sim.Second, write)
			}
			write()
		}
	}},
	"racyelect": {minNodes: 2, nodes: "two nodes", setup: racyElectSetup},
	// Distributed agreement workloads: bully leader election with an
	// injected leader crash, and a 2PC commit group whose coordinator
	// crash leaves participants blocked in doubt.
	"quorum": {minNodes: 3, nodes: "three nodes (a crashed leader must leave a majority)",
		setup: func(c *emucheck.Cluster, e *Experiment, st *ExpStats) func(*emucheck.Session) {
			return func(s *emucheck.Session) {
				nodes := make([]apps.QuorumNode, len(e.Nodes))
				for i, n := range e.Nodes {
					nodes[i] = apps.QuorumNode{Name: n.Name, K: s.Kernel(n.Name), Addr: s.Addr(n.Name)}
				}
				// Crash the first-elected leader at a seed-derived instant of
				// guest time, so every quorum run exercises failure detection
				// and bully re-election; the perturbation seed folds in so
				// branches explore different crash timings.
				crashAt := 20*sim.Second + sim.Time(sim.Mix64(c.Seed, s.Perturb().Seed, 1)%uint64(20*sim.Second))
				apps.RunQuorum(nodes, apps.QuorumConfig{
					CrashLeaderAt: crashAt,
					OnTick:        func() { st.Ticks++; s.Touch() },
					OnOutcome:     func(o string) { st.Outcome = o },
				})
			}
		}},
	"commit2pc": {minNodes: 2, nodes: "two nodes",
		setup: func(c *emucheck.Cluster, e *Experiment, st *ExpStats) func(*emucheck.Session) {
			return func(s *emucheck.Session) {
				nodes := make([]apps.CommitNode, len(e.Nodes))
				for i, n := range e.Nodes {
					nodes[i] = apps.CommitNode{Name: n.Name, K: s.Kernel(n.Name), Addr: s.Addr(n.Name)}
				}
				// Half the seed space crash-stops the coordinator mid-round
				// (the 2PC blocking window); the other half runs clean, so a
				// generated corpus shows both behaviors.
				crashRound := 0
				if sim.Mix64(c.Seed, s.Perturb().Seed, 3)%2 == 0 {
					crashRound = 6 + int(sim.Mix64(c.Seed, s.Perturb().Seed, 4)%6)
				}
				apps.RunCommit2PC(nodes, apps.CommitConfig{
					Seed:              int64(sim.Mix64(c.Seed, s.Perturb().Seed, 2)),
					CrashCoordAtRound: crashRound,
					OnTick:            func() { st.Ticks++; s.Touch() },
					OnOutcome:         func(o apps.CommitOutcome) { st.commit = o },
				})
			}
		}},
}

// action is one timed event action.
type action struct {
	swappable bool // every node of the target must be swappable
	apply     applyFunc
}

// applyFunc runs an action against the named, submitted tenant.
type applyFunc func(c *emucheck.Cluster, name string, sess *emucheck.Session, st *ExpStats) error

// byName adapts a Cluster method that acts on a tenant by name.
func byName(m func(*emucheck.Cluster, string) error) applyFunc {
	return func(c *emucheck.Cluster, name string, _ *emucheck.Session, _ *ExpStats) error { return m(c, name) }
}

// actions is the event-action vocabulary.
var actions = map[string]action{
	"swap_out": {swappable: true, apply: byName((*emucheck.Cluster).Park)},
	"swap_in":  {swappable: true, apply: byName((*emucheck.Cluster).Unpark)},
	"checkpoint": {apply: func(c *emucheck.Cluster, _ string, sess *emucheck.Session, st *ExpStats) error {
		return sess.CheckpointAsync(core.Options{Incremental: true, SaveDeadline: c.SaveDeadline}, func(_ *core.Result, cerr error) {
			if cerr == nil {
				st.Checkpoints++
			}
		})
	}},
	// inject is a burst of fresh guest activity: dirty a few MB of disk
	// and report liveness, the "experimenter came back" signal. Only a
	// tenant actually in service can receive it (a stateful-parked one
	// still has Exp, but its guests are frozen off-hardware).
	"inject": {apply: func(_ *emucheck.Cluster, _ string, sess *emucheck.Session, _ *ExpStats) error {
		if sess.Exp == nil || sess.State() != "running" {
			return fmt.Errorf("experiment is %s", sess.State())
		}
		sess.Exp.Node(sess.Scenario.Spec.Nodes[0].Name).K.WriteDisk(2<<30, 4<<20, nil)
		sess.Touch()
		return nil
	}},
	"finish": {apply: byName((*emucheck.Cluster).Finish)},
	// recover restores a crashed tenant from its last committed epoch;
	// restart re-runs it from scratch (the stateless baseline).
	"recover": {apply: byName((*emucheck.Cluster).Recover)},
	"restart": {apply: byName((*emucheck.Cluster).Restart)},
}

// faultKind is one injectable fault.
type faultKind struct {
	kind       fault.Kind
	duringSave bool // fires at the target's next save phase after at
	node       nodeRule
}

// nodeRule is how a fault kind treats the fault's node field.
type nodeRule uint8

const (
	nodeIgnored  nodeRule = iota
	nodeOptional          // a filter: if given, a node of the target
	nodeRequired          // a node of the target
)

// faultKinds is the fault-kind vocabulary.
var faultKinds = map[string]faultKind{
	"crash":             {kind: fault.Crash},
	"crash_during_save": {kind: fault.Crash, duringSave: true},
	"drop":              {kind: fault.Drop, node: nodeOptional},
	"delay":             {kind: fault.Delay, node: nodeOptional},
	"slow_disk":         {kind: fault.SlowDisk, node: nodeRequired},
	"slow_save":         {kind: fault.SlowSave, node: nodeRequired},
}
