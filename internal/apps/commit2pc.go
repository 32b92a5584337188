package apps

import (
	"fmt"

	"emucheck/internal/guest"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

// CommitNode is one member of a 2PC commit group: the first node is the
// coordinator, the rest are participants.
type CommitNode struct {
	Name string
	K    *guest.Kernel
	Addr simnet.Addr
}

// CommitConfig parameterizes a two-phase-commit run.
type CommitConfig struct {
	// Seed drives the deterministic vote schedule: participant p votes
	// no on round r iff Mix64(seed, r, p) lands in a 1-in-8 slice, so
	// most rounds commit and some abort — all arithmetic, no RNG.
	Seed int64
	// Period is the transaction cadence (default 2 s per round).
	Period sim.Time
	// VoteTimeout bounds the coordinator's vote collection; a missing
	// vote aborts the round (default 600 ms).
	VoteTimeout sim.Time
	// Rounds bounds the run (0 = keep going until the scenario ends).
	Rounds int
	// CrashCoordAtRound crash-stops the coordinator in the middle of
	// this round — after its prepares went out, before any decision —
	// which is exactly 2PC's blocking window: participants that voted
	// yes hold their locks in doubt forever (0 = never crash).
	CrashCoordAtRound int
	// OnTick observes protocol progress (a decision made or applied).
	OnTick func()
	// OnOutcome reports the running tally after every decision, or the
	// blocked verdict after a coordinator crash; the last report is the
	// run's terminal outcome.
	OnOutcome func(CommitOutcome)
}

// CommitOutcome is the tally OnOutcome reports; Blocked, if nonzero,
// is the round a crash left yes-voters in doubt. It is never zero.
type CommitOutcome struct{ Commits, Aborts, Blocked int }

func (o CommitOutcome) String() string {
	if o.Blocked == 0 {
		return fmt.Sprintf("commits=%d aborts=%d", o.Commits, o.Aborts)
	}
	return fmt.Sprintf("blocked r=%d commits=%d aborts=%d", o.Blocked, o.Commits, o.Aborts)
}

// Commit2PC is a running two-phase-commit group: the coordinator drives
// prepare/commit/abort rounds over the experiment network, participants
// journal their votes and applies to disk (dirty state the checkpoint
// lineage carries), and a coordinator crash leaves yes-voters blocked
// in doubt — the classic blocking problem, made observable.
type Commit2PC struct {
	cfg   CommitConfig
	nodes []CommitNode

	// Commits and Aborts count decided rounds; Blocked counts
	// participants left in doubt by a coordinator crash.
	Commits int
	Aborts  int
	Blocked int

	coordAlive bool
	round      int
	collecting bool
	votes      map[int]bool // participant index -> vote of current round

	// The coordinator's per-round continuations, bound once: the next
	// round, and the decision after vote collection.
	onRound, onDecide func()

	// pool carries every message of the group.
	pool guest.Pool[commitMsg]
}

// RunCommit2PC starts the commit protocol (nodes[0] coordinates) and
// returns the running app. Needs at least two nodes.
func RunCommit2PC(nodes []CommitNode, cfg CommitConfig) *Commit2PC {
	if cfg.Period <= 0 {
		cfg.Period = 2 * sim.Second
	}
	if cfg.VoteTimeout <= 0 {
		cfg.VoteTimeout = 600 * sim.Millisecond
	}
	c := &Commit2PC{cfg: cfg, nodes: nodes, coordAlive: true, votes: make(map[int]bool)}
	c.onRound, c.onDecide = c.runRound, c.decide
	c.installCoordinator()
	for p := 1; p < len(nodes); p++ {
		c.installParticipant(p)
	}
	nodes[0].K.Usleep(cfg.Period, c.onRound)
	return c
}

// vote is participant p's deterministic ballot for round r.
func (c *Commit2PC) vote(r, p int) bool {
	return sim.Mix64(c.cfg.Seed, int64(r), int64(p))%8 != 0
}

func (c *Commit2PC) tick() {
	if c.cfg.OnTick != nil {
		c.cfg.OnTick()
	}
}

// commitMsg rides every 2PC port. A prepare or a decision carries its
// round; a vote adds whose ballot it is, yes or no.
type commitMsg struct {
	Round int
	From  int
	Yes   bool
}

// installCoordinator registers the vote collector.
func (c *Commit2PC) installCoordinator() {
	c.nodes[0].K.Handle("2pc.vote", c.pool.Handler(func(_ simnet.Addr, v *commitMsg) {
		if !c.coordAlive || !c.collecting || v.Round != c.round {
			return
		}
		c.votes[v.From] = v.Yes
	}))
}

// runRound drives one transaction: prepare fan-out, vote collection
// with a timeout, then a unanimous-commit-or-abort decision fan-out.
func (c *Commit2PC) runRound() {
	if !c.coordAlive || (c.cfg.Rounds > 0 && c.round >= c.cfg.Rounds) {
		return
	}
	c.round++
	r := c.round
	k := c.nodes[0].K
	clear(c.votes)
	c.collecting = true
	for p := 1; p < len(c.nodes); p++ {
		c.pool.Send(k, c.nodes[p].Addr, 200, "2pc.prepare", commitMsg{Round: r})
	}
	if r == c.cfg.CrashCoordAtRound {
		// Fail-silent between prepare and decision: the blocking window.
		c.coordAlive = false
		c.collecting = false
		return
	}
	k.Usleep(c.cfg.VoteTimeout, c.onDecide)
}

// decide ends the current round's vote collection: unanimous yes
// commits, anything else aborts, and the next round follows a period
// after the prepares went out.
func (c *Commit2PC) decide() {
	if !c.coordAlive {
		return
	}
	r, k := c.round, c.nodes[0].K
	c.collecting = false
	decision := "2pc.commit"
	if len(c.votes) < len(c.nodes)-1 {
		decision = "2pc.abort" // a ballot went missing: presume no
	}
	// Map order is harmless: any "no" aborts, whatever its position.
	for _, yes := range c.votes {
		if !yes {
			decision = "2pc.abort"
		}
	}
	if decision == "2pc.commit" {
		c.Commits++
	} else {
		c.Aborts++
	}
	// The coordinator journals the decision before announcing it
	// (presumed-nothing log), then fans it out.
	k.WriteDisk(int64(r)<<20, 64<<10, nil)
	for p := 1; p < len(c.nodes); p++ {
		c.pool.Send(k, c.nodes[p].Addr, 150, decision, commitMsg{Round: r})
	}
	if c.cfg.OnOutcome != nil {
		c.cfg.OnOutcome(CommitOutcome{Commits: c.Commits, Aborts: c.Aborts})
	}
	c.tick()
	k.Usleep(c.cfg.Period-c.cfg.VoteTimeout, c.onRound)
}

// participant is one member's side of the protocol. A yes vote puts
// the round in doubt until a decision arrives; if the coordinator
// crash-stopped, the doubt never resolves and the participant reports
// itself blocked.
type participant struct {
	c       *Commit2PC
	idx     int
	k       *guest.Kernel
	inDoubt map[int]bool
	free    []*ballot // recycled ballots
}

// ballot is one round's vote from journal write to verdict: journaled
// and expire, bound once when the ballot is first made, are its two
// continuations. A ballot returns to its participant's free list when
// its last continuation has run, so steady rounds allocate nothing.
type ballot struct {
	pt    *participant
	round int
	coord simnet.Addr
	yes   bool

	journaled, expire func()
}

// installParticipant registers participant p's prepare and decision
// handlers.
func (c *Commit2PC) installParticipant(p int) {
	pt := &participant{c: c, idx: p, k: c.nodes[p].K, inDoubt: make(map[int]bool)}
	pt.k.Handle("2pc.prepare", c.pool.Handler(pt.prepare))
	pt.k.Handle("2pc.commit", c.pool.Handler(pt.decided))
	pt.k.Handle("2pc.abort", c.pool.Handler(pt.decided))
}

// prepare journals the participant's ballot before voting: the write
// the checkpoint lineage must carry for recovery to be honest.
func (pt *participant) prepare(from simnet.Addr, msg *commitMsg) {
	var b *ballot
	if n := len(pt.free); n > 0 {
		b = pt.free[n-1]
		pt.free = pt.free[:n-1]
	} else {
		b = &ballot{pt: pt}
		b.journaled, b.expire = b.vote, b.detectBlock
	}
	b.round, b.coord, b.yes = msg.Round, from, pt.c.vote(msg.Round, pt.idx)
	pt.k.WriteDisk(int64(pt.idx)<<30|int64(b.round)<<16, 32<<10, b.journaled)
}

// vote sends the journaled ballot. A yes vote leaves the round in
// doubt and arms the block detector.
func (b *ballot) vote() {
	pt := b.pt
	pt.c.pool.Send(pt.k, b.coord, 150, "2pc.vote", commitMsg{Round: b.round, From: pt.idx, Yes: b.yes})
	if !b.yes {
		pt.release(b)
		return
	}
	pt.inDoubt[b.round] = true
	pt.k.Usleep(3*pt.c.cfg.Period, b.expire)
}

// detectBlock is the block detector: a yes-voter that hears no decision
// for well past the round budget is wedged on the coordinator.
func (b *ballot) detectBlock() {
	pt, c := b.pt, b.pt.c
	if pt.inDoubt[b.round] {
		c.Blocked++
		if c.cfg.OnOutcome != nil {
			c.cfg.OnOutcome(CommitOutcome{Commits: c.Commits, Aborts: c.Aborts, Blocked: b.round})
		}
	}
	pt.release(b)
}

func (pt *participant) release(b *ballot) { pt.free = append(pt.free, b) }

// decided applies a commit or abort: the round leaves doubt and the
// outcome is journaled.
func (pt *participant) decided(_ simnet.Addr, msg *commitMsg) {
	delete(pt.inDoubt, msg.Round)
	pt.k.WriteDisk(int64(pt.idx)<<30|int64(msg.Round)<<16|1<<8, 32<<10, nil)
	pt.c.tick()
}
