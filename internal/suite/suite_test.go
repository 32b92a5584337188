package suite

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"emucheck"
	"emucheck/internal/node"
	"emucheck/internal/scenario"
	"emucheck/internal/scengen"
	"emucheck/internal/sim"
	"emucheck/internal/storage"
)

// loadExamples parses every shipped example scenario.
func loadExamples(t *testing.T) ([]*scenario.File, []string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		t.Fatal("no example scenarios found")
	}
	var files []*scenario.File
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := scenario.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		files = append(files, f)
	}
	return files, paths
}

// TestExamplesPassSuiteInvariants runs every shipped example scenario
// under the suite's shared invariants: each must validate, pass its
// own assertions, and satisfy every conservation law.
func TestExamplesPassSuiteInvariants(t *testing.T) {
	files, paths := loadExamples(t)
	for i, f := range files {
		f := f
		name := filepath.Base(paths[i])
		t.Run(name, func(t *testing.T) {
			if errs := scenario.Validate(f); len(errs) > 0 {
				t.Fatalf("does not validate: %v", errs)
			}
			rr := RunOne(f, paths[i])
			if rr.Error != "" {
				t.Fatalf("run error: %s", rr.Error)
			}
			for _, inv := range rr.Invariants {
				if !inv.Ok {
					t.Errorf("invariant %s: %s", inv.Name, inv.Detail)
				}
			}
			if !rr.Pass {
				t.Errorf("scenario failed: %+v", rr.Result.Checks)
			}
		})
	}
}

// TestMatrixDeterministicAndCovers is the acceptance gate: the default
// 24-scenario matrix passes wholesale, two same-seed suite runs marshal
// to byte-identical JSON reports, and the corpus coverage spans every
// required behavior axis.
func TestMatrixDeterministicAndCovers(t *testing.T) {
	rep := RunMatrix(1, 24, 1)
	if rep.Failed != 0 {
		t.Fatalf("24-scenario matrix: %d failed\n%s", rep.Failed, rep.Render())
	}
	again := RunMatrix(1, 24, 1)
	a, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two same-seed suite runs produced different JSON reports")
	}
	for _, axis := range []string{
		"swap:incremental", "storage:cache", "faults", "gang-admission",
		"branching", "workload:quorum", "workload:commit2pc", "epochs",
		"federation", "federation:migration",
	} {
		if rep.Coverage[axis] == 0 {
			t.Errorf("matrix coverage misses %s: %v", axis, rep.Coverage)
		}
	}
}

// TestFederationScenarioUnderSuite: a federation scenario has no
// cluster to audit, so its suite verdict carries the replay-digest
// invariant plus the federation ledger audit — and still passes.
func TestFederationScenarioUnderSuite(t *testing.T) {
	f := &scenario.File{
		Name: "fed", Seed: 3, RunFor: "20m",
		Federation: &scenario.Federation{
			Facilities: 2, Tenants: 48, Migration: true, WarmUp: true,
		},
		Assertions: []scenario.Assertion{{Type: "all_completed"}},
	}
	rr := RunOne(f, "test")
	if !rr.Pass {
		t.Fatalf("federation suite run failed: %+v", rr)
	}
	names := map[string]bool{}
	for _, inv := range rr.Invariants {
		names[inv.Name] = true
		if !inv.Ok {
			t.Errorf("invariant %s failed: %s", inv.Name, inv.Detail)
		}
	}
	if !names["replay-digest"] || !names["federation-ledgers"] {
		t.Fatalf("missing federation invariants: %v", names)
	}

	// Non-vacuity: a corrupted ledger must be flagged.
	fr := *rr.Result.Federation
	fr.Completed = fr.Tenants + 1
	if inv := checkFederation(&fr); inv.Ok {
		t.Fatal("over-complete fleet not flagged")
	}
	fr = *rr.Result.Federation
	fr.Windows = 0
	if inv := checkFederation(&fr); inv.Ok {
		t.Fatal("zero-window run not flagged")
	}
}

// tamperCluster runs a minimal scenario and hands back its live cluster
// for the non-vacuity tests to corrupt.
func tamperCluster(t *testing.T) *emucheck.Cluster {
	t.Helper()
	f := &scenario.File{
		Name: "tamper", Seed: 1, Pool: 1, RunFor: "30s",
		Experiments: []scenario.Experiment{
			{Name: "e", Workload: "sleeploop", Nodes: []scenario.Node{{Name: "e-n0", Swappable: true}}},
		},
	}
	_, c, err := scenario.RunWithCluster(f)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestInvariantsAreNotVacuous corrupts each audited ledger on a healthy
// cluster and demands the matching invariant actually fail — a check
// that can't fire is worse than none.
func TestInvariantsAreNotVacuous(t *testing.T) {
	t.Run("hardware-leak", func(t *testing.T) {
		c := tamperCluster(t)
		if inv := checkHardware(c); !inv.Ok {
			t.Fatalf("healthy cluster flagged: %s", inv.Detail)
		}
		c.TB.FreeNodes = -1
		if inv := checkHardware(c); inv.Ok {
			t.Fatal("negative free-node count not flagged")
		}
	})
	t.Run("bus-conservation", func(t *testing.T) {
		c := tamperCluster(t)
		if inv := checkBus(c); !inv.Ok {
			t.Fatalf("healthy cluster flagged: %s", inv.Detail)
		}
		c.TB.Bus.Delivered = c.TB.Bus.Attempts + 1
		if inv := checkBus(c); inv.Ok {
			t.Fatal("phantom delivery (delivered > attempts) not flagged")
		}
	})
	t.Run("chain-refcounts", func(t *testing.T) {
		c := tamperCluster(t)
		if inv := checkChains(c); !inv.Ok {
			t.Fatalf("healthy cluster flagged: %s", inv.Detail)
		}
		// A lineage no tenant owns commits an epoch: its entry is
		// unreachable from any live lineage the suite can see. The epoch
		// is one block at a VBA past every golden image the cluster
		// writes, so its content is new to the store.
		v := storage.NewVolume(node.NewDisk(sim.New(1), node.DefaultParams()), 4<<30, storage.Optimized)
		v.Write(1<<20*storage.BlockSize, storage.BlockSize, nil)
		l := c.Chains.NewLineage(0)
		entries := c.Chains.Entries()
		l.Commit(v.EpochBlocks(nil), 4)
		if c.Chains.Entries() != entries+1 {
			t.Fatalf("orphaned epoch deduplicated against a cluster epoch: %d entries, want %d", c.Chains.Entries(), entries+1)
		}
		if inv := checkChains(c); inv.Ok {
			t.Fatal("orphaned chain entry not flagged")
		}
	})
	t.Run("ledgers", func(t *testing.T) {
		c := tamperCluster(t)
		if inv := checkLedgers(c); !inv.Ok {
			t.Fatalf("healthy cluster flagged: %s", inv.Detail)
		}
		c.Sched.Preemptions = -1
		if inv := checkLedgers(c); inv.Ok {
			t.Fatal("negative scheduler counter not flagged")
		}
	})
}

// TestQuorumScenarioDeterministicUnderLeaderCrash is the quorum
// determinism regression: the runner always crash-stops the
// first-elected leader mid-run, and two same-seed runs must still
// produce byte-identical result digests.
func TestQuorumScenarioDeterministicUnderLeaderCrash(t *testing.T) {
	f := scengen.Generate(1, 4) // index 4 = quorum shape
	if !strings.HasSuffix(f.Name, "quorum") {
		t.Fatalf("expected quorum shape at index 4, got %s", f.Name)
	}
	a, b := RunOne(f, "a"), RunOne(f, "b")
	if a.Error != "" || !a.Pass {
		t.Fatalf("quorum scenario failed: %+v", a)
	}
	if a.Digest != b.Digest {
		t.Fatalf("same-seed quorum digests differ: %s vs %s", a.Digest, b.Digest)
	}
	out := a.Result.Experiments[0].Outcome
	if !strings.HasPrefix(out, "leader=") {
		t.Fatalf("quorum run ended without a re-elected leader: outcome %q", out)
	}
}

// TestCommit2PCScenarioDeterministicUnderCoordinatorCrash scans
// generator seeds for a 2PC run whose coordinator crash-stops between
// prepare and decision (half the seed space does), then demands the
// blocked run replay to an identical digest.
func TestCommit2PCScenarioDeterministicUnderCoordinatorCrash(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		f := scengen.Generate(seed, 5) // index 5 = commit2pc shape
		rr := RunOne(f, "scan")
		if rr.Error != "" || !rr.Pass {
			t.Fatalf("seed %d: 2PC scenario failed: %+v", seed, rr)
		}
		if !strings.HasPrefix(rr.Result.Experiments[0].Outcome, "blocked ") {
			continue
		}
		again := RunOne(f, "scan")
		if rr.Digest != again.Digest {
			t.Fatalf("seed %d: blocked 2PC digests differ: %s vs %s", seed, rr.Digest, again.Digest)
		}
		return
	}
	t.Fatal("no generator seed in 1..8 produced a coordinator crash; crash axis looks dead")
}

// TestJUnitXML pins the JUnit rendering: well-formed XML, one testcase
// per run, failures and errors attributed, simulated-seconds time
// attributes.
func TestJUnitXML(t *testing.T) {
	rep := &Report{
		Schema: Schema,
		Runs: []RunReport{
			{Name: "ok", Source: "examples/scenarios/ok.json", Pass: true, SimSeconds: 240, Digest: "feed"},
			{Name: "bad", Source: "generated", Pass: false, SimSeconds: 60,
				Invariants: []InvariantCheck{{Name: "ledgers", Ok: false, Detail: "utilization 2.0000 outside [0, 1]"}}},
			{Name: "broken", Source: "generated", Error: "scenario invalid: pool must be positive"},
		},
		Passed: 1, Failed: 2,
	}
	data, err := rep.JUnit("emusuite")
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		XMLName  xml.Name `xml:"testsuite"`
		Tests    int      `xml:"tests,attr"`
		Failures int      `xml:"failures,attr"`
		Errors   int      `xml:"errors,attr"`
		Cases    []struct {
			Name      string `xml:"name,attr"`
			Classname string `xml:"classname,attr"`
			Time      string `xml:"time,attr"`
			Failure   *struct {
				Message string `xml:"message,attr"`
			} `xml:"failure"`
			Error *struct {
				Message string `xml:"message,attr"`
			} `xml:"error"`
		} `xml:"testcase"`
	}
	if err := xml.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("JUnit output does not parse: %v\n%s", err, data)
	}
	if parsed.Tests != 3 || parsed.Failures != 1 || parsed.Errors != 1 {
		t.Fatalf("counts tests=%d failures=%d errors=%d, want 3/1/1", parsed.Tests, parsed.Failures, parsed.Errors)
	}
	if got := parsed.Cases[0].Classname; got != "emusuite.examples.scenarios.ok" {
		t.Errorf("file-run classname %q", got)
	}
	if got := parsed.Cases[0].Time; got != "240.000" {
		t.Errorf("time attr %q, want simulated seconds 240.000", got)
	}
	if parsed.Cases[1].Failure == nil || !strings.Contains(parsed.Cases[1].Failure.Message, "ledgers") {
		t.Errorf("failed run missing failure element: %+v", parsed.Cases[1])
	}
	if parsed.Cases[2].Error == nil || parsed.Cases[2].Error.Message != "scenario did not run" {
		t.Errorf("errored run missing error element: %+v", parsed.Cases[2])
	}
}
