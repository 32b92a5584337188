package apps

import (
	"math"
	"slices"
	"testing"

	"emucheck/internal/guest"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

func TestPingPongPacesRounds(t *testing.T) {
	s, ks := linkedKernels(1, []string{"a", "b"}, 100*simnet.Mbps)
	var rounds []int
	pp := RunPingPong(ks[0], ks[1], "a", "b", 50*sim.Millisecond, func(r int) { rounds = append(rounds, r) })
	s.RunFor(sim.Second)
	// A round is an RPC plus a 50 ms sleep that lands on the first
	// 10 ms tick after it: 60 ms.
	if pp.Rounds < 15 || pp.Rounds > 17 {
		t.Fatalf("%d rounds in 1 s, want about 16", pp.Rounds)
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Fatalf("pong %d echoed round %d", i+1, r)
		}
	}
}

// delivered counts the packets every kernel has received.
func delivered(ks []*guest.Kernel) uint64 {
	var n uint64
	for _, k := range ks {
		n += k.RcvdPackets
	}
	return n
}

// allocsPerMessage runs s for three windows of d after a warm-up of d
// and returns the fewest heap allocations per delivered message. The Go
// runtime can allocate inside a window on its own (a GC worker taking a
// fresh sudog) and that only ever adds, so the best window is the
// app's cost; a per-message allocation shows in every window.
func allocsPerMessage(t *testing.T, s *sim.Simulator, ks []*guest.Kernel, d sim.Time) float64 {
	t.Helper()
	s.RunFor(d)
	best := math.Inf(1)
	for range 3 {
		var msgs uint64
		allocs := testing.AllocsPerRun(1, func() {
			n0 := delivered(ks)
			s.RunFor(d)
			msgs = delivered(ks) - n0
		})
		if msgs == 0 {
			t.Fatal("no messages delivered")
		}
		t.Logf("%.0f allocs over %d messages", allocs, msgs)
		best = min(best, allocs/float64(msgs))
	}
	return best
}

// TestRPCAppsAllocs holds the corpus's message-passing apps to no
// allocation per delivered message once their pools, ballots and
// timers are warm: a ping-pong pair, a quorum group heartbeating under
// its leader, and 2PC rounds with their journal writes, reported to an
// outcome observer as they are decided.
func TestRPCAppsAllocs(t *testing.T) {
	t.Run("pingpong", func(t *testing.T) {
		s, ks := linkedKernels(1, []string{"a", "b"}, 100*simnet.Mbps)
		RunPingPong(ks[0], ks[1], "a", "b", 50*sim.Millisecond, nil)
		if got := allocsPerMessage(t, s, ks, 5*sim.Second); got != 0 {
			t.Fatalf("%.3f allocs per message, want 0", got)
		}
	})
	t.Run("quorum", func(t *testing.T) {
		s, nodes := quorumFleet(1, 3)
		q := RunQuorum(nodes, QuorumConfig{})
		ks := []*guest.Kernel{nodes[0].K, nodes[1].K, nodes[2].K}
		if got := allocsPerMessage(t, s, ks, 10*sim.Second); got != 0 {
			t.Fatalf("%.3f allocs per message, want 0", got)
		}
		if q.Leader() != "c" {
			t.Fatalf("leader %q, want c", q.Leader())
		}
	})
	t.Run("commit2pc", func(t *testing.T) {
		s, nodes := commitFleet(1, 4)
		var last CommitOutcome
		c := RunCommit2PC(nodes, CommitConfig{Seed: 5, OnOutcome: func(o CommitOutcome) { last = o }})
		var ks []*guest.Kernel
		for _, n := range nodes {
			ks = append(ks, n.K)
		}
		if got := allocsPerMessage(t, s, ks, 20*sim.Second); got != 0 {
			t.Fatalf("%.3f allocs per message, want 0", got)
		}
		if c.Commits == 0 || c.Aborts == 0 {
			t.Fatalf("%d commits, %d aborts; want both decisions exercised", c.Commits, c.Aborts)
		}
		if want := (CommitOutcome{Commits: c.Commits, Aborts: c.Aborts}); last != want {
			t.Fatalf("observer saw %+v, want the group's tally %+v", last, want)
		}
	})
}

// TestCommit2PCBallotsMatchVotes checks that recycled ballots carry
// each round's own vote: the coordinator's tally equals the
// deterministic schedule, round by round.
func TestCommit2PCBallotsMatchVotes(t *testing.T) {
	s, nodes := commitFleet(2, 4)
	var outcomes []string
	c := RunCommit2PC(nodes, CommitConfig{Seed: 9, Rounds: 30, OnOutcome: func(o CommitOutcome) { outcomes = append(outcomes, o.String()) }})
	s.RunFor(70 * sim.Second)
	commits := 0
	for r := 1; r <= 30; r++ {
		if c.vote(r, 1) && c.vote(r, 2) && c.vote(r, 3) {
			commits++
		}
	}
	if c.Commits != commits || c.Aborts != 30-commits {
		t.Fatalf("%d commits, %d aborts; the vote schedule gives %d and %d", c.Commits, c.Aborts, commits, 30-commits)
	}
	if len(outcomes) != 30 || slices.ContainsFunc(outcomes, func(o string) bool { return o[0] == 'b' }) {
		t.Fatalf("outcomes %v, want 30 tallies and no blocked report", outcomes)
	}
}
