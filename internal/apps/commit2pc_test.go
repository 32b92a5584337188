package apps

import (
	"strings"
	"testing"

	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

func commitFleet(seed int64, n int) (*sim.Simulator, []CommitNode) {
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('p' + i))
	}
	s, ks := linkedKernels(seed, names, 100*simnet.Mbps)
	nodes := make([]CommitNode, n)
	for i, k := range ks {
		nodes[i] = CommitNode{Name: names[i], K: k, Addr: simnet.Addr(names[i])}
	}
	return s, nodes
}

func TestCommit2PCDecidesEveryRound(t *testing.T) {
	s, nodes := commitFleet(3, 4)
	var last string
	c := RunCommit2PC(nodes, CommitConfig{
		Seed: 11, Rounds: 10,
		OnOutcome: func(o CommitOutcome) { last = o.String() },
	})
	s.RunFor(2 * sim.Minute)
	if c.Commits+c.Aborts != 10 {
		t.Fatalf("decided %d+%d rounds, want 10", c.Commits, c.Aborts)
	}
	// The 1-in-8 no-vote slice should produce both outcomes over 10
	// rounds of 3 participants with this seed.
	if c.Commits == 0 || c.Aborts == 0 {
		t.Fatalf("commits=%d aborts=%d: want a mix", c.Commits, c.Aborts)
	}
	if c.Blocked != 0 {
		t.Fatalf("blocked = %d with a live coordinator", c.Blocked)
	}
	if last == "" || !strings.HasPrefix(last, "commits=") {
		t.Fatalf("terminal outcome = %q", last)
	}
}

func TestCommit2PCBlocksOnCoordinatorCrash(t *testing.T) {
	s, nodes := commitFleet(4, 3)
	var last string
	c := RunCommit2PC(nodes, CommitConfig{
		// Seed 5 makes both participants vote yes on round 3 (checked
		// below), so the mid-round crash leaves both in doubt.
		Seed: 5, CrashCoordAtRound: 3,
		OnOutcome: func(o CommitOutcome) { last = o.String() },
	})
	for p := 1; p < 3; p++ {
		if !c.vote(3, p) {
			t.Fatalf("seed 5: participant %d votes no on round 3; pick a seed where all vote yes", p)
		}
	}
	s.RunFor(time2PC)
	if c.Commits+c.Aborts != 2 {
		t.Fatalf("decided %d rounds before the crash, want 2", c.Commits+c.Aborts)
	}
	if c.Blocked != 2 {
		t.Fatalf("blocked = %d, want both yes-voters wedged in doubt", c.Blocked)
	}
	if !strings.HasPrefix(last, "blocked r=3") {
		t.Fatalf("terminal outcome = %q, want a blocked verdict", last)
	}
}

const time2PC = 2 * sim.Minute

func TestCommit2PCDeterministic(t *testing.T) {
	run := func() (int, int, int) {
		s, nodes := commitFleet(9, 5)
		c := RunCommit2PC(nodes, CommitConfig{Seed: 21, CrashCoordAtRound: 7})
		s.RunFor(time2PC)
		return c.Commits, c.Aborts, c.Blocked
	}
	c1, a1, b1 := run()
	c2, a2, b2 := run()
	if c1 != c2 || a1 != a2 || b1 != b2 {
		t.Fatalf("same-seed runs diverged: (%d,%d,%d) vs (%d,%d,%d)", c1, a1, b1, c2, a2, b2)
	}
}
