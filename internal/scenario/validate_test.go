package scenario

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// validBase builds a scenario that passes Validate; each negative case
// below mutates one copy to break exactly one rule.
func validBase() *File {
	return &File{
		Name: "base", Seed: 1, Pool: 4, Policy: "fifo", RunFor: "2m",
		Experiments: []Experiment{
			{Name: "e1", Workload: "sleeploop", Nodes: []Node{{Name: "a", Swappable: true}}},
			{Name: "e2", Workload: "pingpong", Nodes: []Node{
				{Name: "b", Swappable: true}, {Name: "c", Swappable: true}},
				Links: []Link{{A: "b", B: "c"}}},
		},
	}
}

// TestValidateNegativeTable exercises one malformed case per Validate
// rule, per stanza, asserting the exact error substring each rule
// emits. A rule whose message drifts (or whose check is dropped) fails
// here by name.
func TestValidateNegativeTable(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*File)
		want string
	}{
		// File-level stanza.
		{"no-name", func(f *File) { f.Name = "" }, "scenario has no name"},
		{"bad-pool", func(f *File) { f.Pool = 0 }, "pool must be positive"},
		{"bad-run-for", func(f *File) { f.RunFor = "soon" }, `run_for "soon" does not parse`},
		{"empty-run-for", func(f *File) { f.RunFor = "" }, `run_for "" does not parse`},
		{"bad-policy", func(f *File) { f.Policy = "karma" }, `unknown policy "karma"`},
		{"bad-swap-mode", func(f *File) { f.Swap = "lazy" }, `unknown swap mode "lazy"`},
		{"bad-save-deadline", func(f *File) { f.SaveDeadline = "whenever" }, `save_deadline "whenever" does not parse`},
		{"no-experiments", func(f *File) { f.Experiments = nil }, "no experiments"},

		// Storage stanza.
		{"bad-backend", func(f *File) { f.Storage = &Storage{Backend: "tape"} }, `unknown backend "tape"`},
		{"negative-cache", func(f *File) { f.Storage = &Storage{Backend: "disk", CacheMB: -1} }, "negative cache_mb or disk_mb"},
		{"cache-on-mem", func(f *File) { f.Storage = &Storage{Backend: "mem", CacheMB: 8} }, "cache_mb needs a disk or remote backend"},

		// Experiment stanza.
		{"exp-no-name", func(f *File) { f.Experiments[0].Name = "" }, "experiment 0 has no name"},
		{"exp-duplicate", func(f *File) { f.Experiments[1] = f.Experiments[0] }, `duplicate experiment "e1"`},
		{"exp-no-nodes", func(f *File) { f.Experiments[0].Nodes = nil }, `experiment "e1" has no nodes`},
		{"exp-bad-workload", func(f *File) { f.Experiments[0].Workload = "mining" }, `unknown workload "mining"`},
		{"pingpong-one-node", func(f *File) { f.Experiments[1].Nodes = f.Experiments[1].Nodes[:1]; f.Experiments[1].Links = nil },
			`"e2": pingpong needs two nodes`},
		{"commit2pc-one-node", func(f *File) { f.Experiments[0].Workload = "commit2pc" }, `"e1": commit2pc needs two nodes`},
		{"quorum-two-nodes", func(f *File) { f.Experiments[1].Workload = "quorum"; f.Experiments[1].Links = nil },
			"quorum needs three nodes"},
		{"bad-submit-at", func(f *File) { f.Experiments[0].SubmitAt = "later" }, `submit_at "later" does not parse`},
		{"bad-epochs", func(f *File) { f.Experiments[0].Epochs = "often" }, `epochs "often" does not parse`},
		{"epochs-unswappable", func(f *File) { f.Experiments[0].Epochs = "20s"; f.Experiments[0].Nodes[0].Swappable = false },
			"epochs needs every node swappable"},
		{"node-collision", func(f *File) { f.Experiments[1].Nodes[0].Name = "a"; f.Experiments[1].Links[0].A = "a" },
			`node "a" of "e2" collides with "e1"`},
		{"link-unknown-node", func(f *File) { f.Experiments[1].Links[0].B = "ghost" }, "link b-ghost references unknown node"},
		{"lan-unknown-node", func(f *File) { f.Experiments[1].LANs = []LAN{{Name: "l", Members: []string{"b", "ghost"}}} },
			"LAN l references unknown node ghost"},
		{"link-negative-delay", func(f *File) { f.Experiments[1].Links[0].DelayMs = -5 },
			"link b-c: delay_ms -5 must be a finite non-negative number"},
		{"link-nan-bandwidth", func(f *File) { f.Experiments[1].Links[0].BandwidthMbps = math.NaN() },
			"link b-c: bandwidth_mbps NaN must be a finite non-negative number"},
		{"link-infinite-loss", func(f *File) { f.Experiments[1].Links[0].LossPct = math.Inf(1) },
			"link b-c: loss_pct +Inf must be a finite non-negative number"},
		{"link-loss-over-100", func(f *File) { f.Experiments[1].Links[0].LossPct = 150 }, "link b-c: loss_pct 150 exceeds 100"},
		{"link-delay-overflow", func(f *File) { f.Experiments[1].Links[0].DelayMs = 1e13 }, "link b-c: delay_ms 1e+13 exceeds 1e+09"},
		{"link-bandwidth-overflow", func(f *File) { f.Experiments[1].Links[0].BandwidthMbps = 1e16 },
			"link b-c: bandwidth_mbps 1e+16 exceeds 1e+09"},
		{"link-bandwidth-below-1bps", func(f *File) { f.Experiments[1].Links[0].BandwidthMbps = 1e-7 },
			"link b-c: bandwidth_mbps 1e-07 is below 1 bit/s"},
		{"lan-bandwidth-overflow", func(f *File) {
			f.Experiments[1].LANs = []LAN{{Name: "l", Members: []string{"b", "c"}, BandwidthMbps: 1e10}}
		}, "LAN l: bandwidth_mbps 1e+10 exceeds 1e+09"},
		{"lan-negative-bandwidth", func(f *File) {
			f.Experiments[1].LANs = []LAN{{Name: "l", Members: []string{"b", "c"}, BandwidthMbps: -1}}
		}, "LAN l: bandwidth_mbps -1 must be a finite non-negative number"},
		{"exp-exceeds-pool", func(f *File) { f.Pool = 1 }, "it can never be admitted"},

		// Search stanza.
		{"search-unknown-parent", func(f *File) { f.Search = &Search{Parent: "ghost", CheckpointAt: "10s", BranchAt: "20s", FanOut: 1} },
			`search: unknown parent "ghost"`},
		{"search-unswappable-parent", func(f *File) {
			f.Experiments[0].Nodes[0].Swappable = false
			f.Search = &Search{Parent: "e1", CheckpointAt: "10s", BranchAt: "20s", FanOut: 1}
		}, "must be fully swappable"},
		{"search-gang-overflow", func(f *File) { f.Search = &Search{Parent: "e2", CheckpointAt: "10s", BranchAt: "20s", FanOut: 8} },
			"nodes for gang admission"},
		{"search-bad-fanout", func(f *File) { f.Search = &Search{Parent: "e1", CheckpointAt: "10s", BranchAt: "20s"} },
			"fan_out must be positive"},
		{"search-bad-checkpoint-at", func(f *File) { f.Search = &Search{Parent: "e1", CheckpointAt: "x", BranchAt: "20s", FanOut: 1} },
			`checkpoint_at "x" does not parse`},
		{"search-bad-branch-at", func(f *File) { f.Search = &Search{Parent: "e1", CheckpointAt: "10s", BranchAt: "x", FanOut: 1} },
			`branch_at "x" does not parse`},
		{"search-branch-before-checkpoint", func(f *File) { f.Search = &Search{Parent: "e1", CheckpointAt: "20s", BranchAt: "10s", FanOut: 1} },
			`must come after checkpoint_at`},
		{"search-seed-mismatch", func(f *File) {
			f.Search = &Search{Parent: "e1", CheckpointAt: "10s", BranchAt: "20s", FanOut: 2, Seeds: []int64{1}}
		}, "1 seeds for fan_out 2"},

		// Faults stanza.
		{"fault-bad-kind", func(f *File) { f.Faults = []Fault{{Kind: "meteor", At: "10s", Target: "e1"}} },
			`fault 0: unknown kind "meteor"`},
		{"fault-bad-at", func(f *File) { f.Faults = []Fault{{Kind: "crash", At: "x", Target: "e1"}} },
			`fault 0: at "x" does not parse`},
		{"fault-bad-for", func(f *File) { f.Faults = []Fault{{Kind: "delay", At: "10s", For: "x", Target: "e1"}} },
			`fault 0: for "x" does not parse`},
		{"fault-unknown-target", func(f *File) { f.Faults = []Fault{{Kind: "crash", At: "10s", Target: "ghost"}} },
			`fault 0: unknown target "ghost"`},
		{"fault-slow-disk-no-node", func(f *File) { f.Faults = []Fault{{Kind: "slow_disk", At: "10s", Target: "e1"}} },
			`slow_disk needs a node of "e1"`},
		{"fault-drop-foreign-node", func(f *File) { f.Faults = []Fault{{Kind: "drop", At: "10s", Target: "e1", Node: "b"}} },
			`node "b" is not in experiment "e1"`},
		{"fault-negative-knob", func(f *File) { f.Faults = []Fault{{Kind: "drop", At: "10s", Target: "e1", Count: -1}} },
			"fault 0: negative knob"},

		// Events stanza.
		{"event-bad-at", func(f *File) { f.Events = []Event{{At: "x", Action: "finish", Target: "e1"}} },
			`event 0: at "x" does not parse`},
		{"event-bad-action", func(f *File) { f.Events = []Event{{At: "10s", Action: "explode", Target: "e1"}} },
			`event 0: unknown action "explode"`},
		{"event-unknown-target", func(f *File) { f.Events = []Event{{At: "10s", Action: "finish", Target: "ghost"}} },
			`event 0: unknown target "ghost"`},
		{"event-swap-unswappable", func(f *File) {
			f.Experiments[0].Nodes[0].Swappable = false
			f.Events = []Event{{At: "10s", Action: "swap_out", Target: "e1"}}
		}, `swap_out needs every node of "e1" swappable`},

		// Assertions stanza.
		{"assert-bad-type", func(f *File) { f.Assertions = []Assertion{{Type: "vibes"}} }, `unknown type "vibes"`},
		{"assert-unknown-target", func(f *File) { f.Assertions = []Assertion{{Type: "min_ticks", Target: "ghost", Value: 1}} },
			`unknown target "ghost"`},
		{"assert-state-incomplete", func(f *File) { f.Assertions = []Assertion{{Type: "state", Target: "e1"}} },
			"state needs target and want"},
		{"assert-search-only", func(f *File) { f.Assertions = []Assertion{{Type: "outcome_found", Want: "x"}} },
			"needs a search stanza"},
		{"assert-outcome-no-want", func(f *File) {
			f.Search = &Search{Parent: "e1", CheckpointAt: "10s", BranchAt: "20s", FanOut: 1}
			f.Assertions = []Assertion{{Type: "outcome_found"}}
		}, "outcome_found needs want"},
		{"assert-distinct-no-value", func(f *File) {
			f.Search = &Search{Parent: "e1", CheckpointAt: "10s", BranchAt: "20s", FanOut: 1}
			f.Assertions = []Assertion{{Type: "min_distinct_outcomes"}}
		}, "min_distinct_outcomes needs a positive value"},
		{"assert-ticks-no-target", func(f *File) { f.Assertions = []Assertion{{Type: "min_ticks", Value: 1}} },
			"min_ticks needs a target"},
		{"assert-recovered-no-target", func(f *File) { f.Assertions = []Assertion{{Type: "recovered"}} },
			"recovered needs a target"},
		{"assert-lost-work-no-value", func(f *File) { f.Assertions = []Assertion{{Type: "max_lost_work_ms", Target: "e1"}} },
			"max_lost_work_ms needs target and a positive value"},
		{"assert-aborted-no-value", func(f *File) { f.Assertions = []Assertion{{Type: "epochs_aborted"}} },
			"epochs_aborted needs a positive value"},
		{"assert-swap-mb-no-value", func(f *File) { f.Assertions = []Assertion{{Type: "max_swap_mb"}} },
			"max_swap_mb needs a positive value"},
		{"assert-cache-ratio-no-cache", func(f *File) { f.Assertions = []Assertion{{Type: "min_cache_hit_ratio", Value: 50}} },
			"min_cache_hit_ratio needs a storage stanza with cache_mb"},
		{"assert-cache-ratio-range", func(f *File) {
			f.Storage = &Storage{Backend: "remote", CacheMB: 8}
			f.Assertions = []Assertion{{Type: "min_cache_hit_ratio", Value: 150}}
		}, "needs a value in (0, 100] percent"},
		{"assert-remote-mb-no-storage", func(f *File) { f.Assertions = []Assertion{{Type: "max_remote_mb", Value: 1}} },
			"max_remote_mb needs a storage stanza"},
		{"assert-remote-mb-negative", func(f *File) {
			f.Storage = &Storage{Backend: "remote"}
			f.Assertions = []Assertion{{Type: "max_remote_mb", Value: -1}}
		}, "max_remote_mb needs a non-negative value"},
		{"assert-queue-wait-bad-dur", func(f *File) { f.Assertions = []Assertion{{Type: "max_queue_wait", Dur: "x"}} },
			`dur "x" does not parse`},
		{"assert-virtual-incomplete", func(f *File) { f.Assertions = []Assertion{{Type: "virtual_elapsed_max", Target: "e1", Dur: "1m"}} },
			"virtual_elapsed_max needs target and node"},
		{"assert-virtual-foreign-node", func(f *File) {
			f.Assertions = []Assertion{{Type: "virtual_elapsed_max", Target: "e1", Node: "b", Dur: "1m"}}
		}, `node "b" is not in experiment "e1"`},
		{"assert-all-completed-no-federation", func(f *File) { f.Assertions = []Assertion{{Type: "all_completed"}} },
			"all_completed needs a federation stanza"},
		{"assert-migrations-no-federation", func(f *File) { f.Assertions = []Assertion{{Type: "min_migrations", Value: 1}} },
			"min_migrations needs a federation stanza"},
		{"assert-wan-mb-no-federation", func(f *File) { f.Assertions = []Assertion{{Type: "max_wan_mb", Value: 1}} },
			"max_wan_mb needs a federation stanza"},
	}
	if errs := Validate(validBase()); len(errs) > 0 {
		t.Fatalf("base scenario must be valid, got %v", errs)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := validBase()
			tc.mut(f)
			errs := Validate(f)
			if len(errs) == 0 {
				t.Fatalf("mutation produced no validation error, want %q", tc.want)
			}
			joined := make([]string, len(errs))
			for i, e := range errs {
				joined[i] = e.Error()
			}
			all := strings.Join(joined, "\n")
			if !strings.Contains(all, tc.want) {
				t.Fatalf("want substring %q in:\n%s", tc.want, all)
			}
		})
	}
}

// TestNegativeLinkDelayRejected takes the shipped swapcycle scenario
// with a negative link delay, which once passed Validate and then
// panicked the run by scheduling a delay-line emission in the past.
// Validate must name the field, and the run must return that error
// without panicking.
func TestNegativeLinkDelayRejected(t *testing.T) {
	checkLinkDelayRejected(t, -5, `experiment "web": link weba-webb: delay_ms -5 must be a finite non-negative number`)
}

// TestOverflowingLinkDelayRejected: a delay whose nanoseconds overflow
// sim.Time once validated and then panicked the run the same way (the
// conversion wrapped to a negative delay).
func TestOverflowingLinkDelayRejected(t *testing.T) {
	checkLinkDelayRejected(t, 1e13, `experiment "web": link weba-webb: delay_ms 1e+13 exceeds 1e+09`)
}

// checkLinkDelayRejected sets the shipped swapcycle scenario's link
// delay and requires Validate to report exactly want and Run to return
// it without panicking.
func checkLinkDelayRejected(t *testing.T, delayMs float64, want string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "swapcycle.json"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	f.Experiments[0].Links[0].DelayMs = delayMs
	errs := Validate(f)
	if len(errs) != 1 || errs[0].Error() != want {
		t.Fatalf("Validate: %v, want [%s]", errs, want)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("run panicked: %v", r)
		}
	}()
	if _, err := Run(f); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run: %v, want an error naming %q", err, want)
	}
}

// verbFile extends validBase to the vocabulary entries no shipped
// example uses: the idle, quorum and commit2pc workloads, the
// crash_during_save, delay, slow_disk and slow_save faults, and the
// restart action, here reviving a tenant with an unswappable node.
func verbFile() *File {
	f := validBase()
	f.Pool = 12
	f.Experiments[0].Epochs = "10s"
	f.Experiments = append(f.Experiments,
		Experiment{Name: "e3", Workload: "quorum", Nodes: []Node{{Name: "q0"}, {Name: "q1"}, {Name: "q2"}}},
		Experiment{Name: "e4", Workload: "commit2pc", Nodes: []Node{{Name: "p0"}, {Name: "p1"}}},
		Experiment{Name: "e5", Workload: "idle", Nodes: []Node{{Name: "i0"}}})
	f.Faults = []Fault{
		{Kind: "crash_during_save", At: "15s", Target: "e1"},
		{Kind: "delay", At: "12s", Target: "e1", Node: "a", ExtraMs: 5},
		{Kind: "slow_disk", At: "12s", Target: "e2", Node: "b"},
		{Kind: "slow_save", At: "12s", Target: "e1", Node: "a"},
		{Kind: "crash", At: "20s", Target: "e5"},
	}
	f.Events = []Event{{At: "30s", Action: "restart", Target: "e5"}}
	f.Assertions = []Assertion{{Type: "state", Target: "e5", Want: "running"}}
	return f
}

// TestEveryVerbRuns: every entry of the four vocabularies is used by a
// Validate-clean file (a shipped example or verbFile), every such file
// passes, and no run of them reports a check, event or fault error
// naming something unknown.
func TestEveryVerbRuns(t *testing.T) {
	files := []*File{verbFile()}
	names, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no example scenarios: %v", err)
	}
	for _, n := range names {
		files = append(files, load(t, filepath.Base(n)))
	}
	used := make(map[string]bool)
	for _, f := range files {
		if errs := Validate(f); len(errs) > 0 {
			t.Fatalf("%s: %v", f.Name, errs)
		}
		for _, e := range f.Experiments {
			used["workload "+e.Workload] = true
		}
		for _, ft := range f.Faults {
			used["fault "+ft.Kind] = true
		}
		for _, ev := range f.Events {
			used["action "+ev.Action] = true
		}
		for _, a := range f.Assertions {
			used["assertion "+a.Type] = true
		}
		res, err := Run(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if !res.Pass {
			t.Errorf("%s failed:\n%s", f.Name, res.Render())
		}
		said := slices.Clone(res.EventErrors)
		for _, ch := range res.Checks {
			said = append(said, ch.Desc, ch.Detail)
		}
		if res.Faults != nil {
			said = append(said, res.Faults.Errors...)
		}
		for _, s := range said {
			if strings.Contains(s, "unknown") {
				t.Errorf("%s: %s", f.Name, s)
			}
		}
	}
	for _, v := range vocabularies {
		for _, k := range v.keys {
			if !used[v.kind+" "+k] {
				t.Errorf("%s %q is used by no Validate-clean test file", v.kind, k)
			}
		}
	}
}

// vocabulary is one code table's entries, sorted, with the
// docs/scenarios.md heading that documents them.
type vocabulary struct {
	kind, heading string
	keys          []string
}

var vocabularies = []vocabulary{
	{"workload", "Workloads", sortedKeys(workloads)},
	{"fault", "Faults", sortedKeys(faultKinds)},
	{"action", "Events", sortedKeys(actions)},
	{"assertion", "Assertions", sortedKeys(assertionTypes)},
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestDocsNameEveryVerb: the Workloads, Faults, Events and Assertions
// tables of docs/scenarios.md name exactly the entries of the code
// tables.
func TestDocsNameEveryVerb(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "scenarios.md"))
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\| `([a-z0-9_]+)` \\|")
	documented := make(map[string][]string) // heading -> first-column names
	heading := ""
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "#") {
			heading = strings.TrimLeft(line, "# ")
		} else if m := row.FindStringSubmatch(line); m != nil {
			documented[heading] = append(documented[heading], m[1])
		}
	}
	for _, v := range vocabularies {
		got := documented[v.heading]
		sort.Strings(got)
		if !slices.Equal(got, v.keys) {
			t.Errorf("docs/scenarios.md %s table names %v, code has %v", v.heading, got, v.keys)
		}
	}
}
