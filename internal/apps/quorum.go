package apps

import (
	"emucheck/internal/guest"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

// QuorumNode is one member of a distributed quorum app: a guest kernel
// plus its experiment-network address and logical name. Rank is the
// node's position in the member list — bully elections are decided by
// rank, highest alive wins.
type QuorumNode struct {
	Name string
	K    *guest.Kernel
	Addr simnet.Addr
}

// QuorumConfig parameterizes a quorum/leader-election run.
type QuorumConfig struct {
	// Heartbeat is the leader's announcement period (default 1 s).
	Heartbeat sim.Time
	// Timeout bounds both the wait for an "alive" answer during an
	// election round and the heartbeat silence a follower tolerates
	// before calling a re-election (default 3 heartbeats).
	Timeout sim.Time
	// CrashLeaderAt crash-stops the initial leader — the highest-ranked
	// node, which bully always elects first — at this instant of its own
	// virtual time (0 = never). The crash is fail-silent: the node stops
	// heartbeating, answering, and campaigning, and the survivors must
	// detect the silence and re-elect the next-highest rank.
	CrashLeaderAt sim.Time
	// OnTick observes protocol progress (a heartbeat received, an
	// election settled) — the liveness signal a hosting scenario feeds
	// to its scheduler.
	OnTick func()
	// OnOutcome reports each election verdict as "leader=<name>"; the
	// last report is the run's terminal outcome.
	OnOutcome func(string)
}

// Quorum is a running bully-style leader election: every member
// campaigns by rank, the winner announces itself and heartbeats, and
// followers that stop hearing heartbeats re-elect. All timing is guest
// virtual time, so checkpoints and swaps stay transparent to the
// protocol, and all choices are deterministic — no RNG draws.
type Quorum struct {
	cfg QuorumConfig

	// Elections counts coordinator announcements (initial election plus
	// every re-election). Crashes counts injected crash-stops.
	Elections int
	Crashes   int

	members []*quorumMember

	// pool carries every member's messages; "q.coord" carries the new
	// leader's name, the rest nothing.
	pool guest.Pool[string]
}

// quorumMember is one node's protocol state.
type quorumMember struct {
	q     *Quorum
	rank  int
	node  QuorumNode
	peers []QuorumNode // all members, indexed by rank

	alive    bool
	isLeader bool
	electing bool
	answered bool // a higher rank responded to the current campaign
	lastHB   sim.Time

	// The monitor's and the heartbeat's per-tick continuations, bound
	// once per member.
	onMonitor, onHeartbeat func()
}

// RunQuorum starts the election protocol over the given members
// (rank = slice index) and returns the running app. Needs at least two
// members; the protocol runs until its kernels stop (it has no natural
// end — the hosting scenario bounds the run).
func RunQuorum(nodes []QuorumNode, cfg QuorumConfig) *Quorum {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = sim.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 3 * cfg.Heartbeat
	}
	q := &Quorum{cfg: cfg}
	for i, n := range nodes {
		m := &quorumMember{q: q, rank: i, node: n, peers: nodes, alive: true}
		m.onMonitor, m.onHeartbeat = m.monitorTick, m.heartbeatTick
		q.members = append(q.members, m)
		m.install()
	}
	for _, m := range q.members {
		m.start()
	}
	return q
}

// Leader reports the highest-ranked member that currently believes it
// leads ("" before the first election settles).
func (q *Quorum) Leader() string {
	for i := len(q.members) - 1; i >= 0; i-- {
		if m := q.members[i]; m.alive && m.isLeader {
			return m.node.Name
		}
	}
	return ""
}

func (q *Quorum) tick() {
	if q.cfg.OnTick != nil {
		q.cfg.OnTick()
	}
}

// install registers the member's protocol ports. Every handler guards
// on alive: a crash-stopped node is deaf and mute (crash-stop model).
func (m *quorumMember) install() {
	k, pool := m.node.K, &m.q.pool
	k.Handle("q.elect", pool.Handler(func(from simnet.Addr, _ *string) {
		if !m.alive {
			return
		}
		// A lower rank is campaigning: veto it and campaign ourselves.
		pool.Send(k, from, 120, "q.alive", "")
		m.startElection()
	}))
	k.Handle("q.alive", pool.Handler(func(simnet.Addr, *string) {
		if !m.alive {
			return
		}
		m.answered = true
	}))
	k.Handle("q.coord", pool.Handler(func(simnet.Addr, *string) {
		if !m.alive {
			return
		}
		m.electing = false
		m.isLeader = false
		m.lastHB = k.Monotonic()
		m.q.tick()
	}))
	k.Handle("q.hb", pool.Handler(func(simnet.Addr, *string) {
		if !m.alive {
			return
		}
		m.lastHB = k.Monotonic()
		m.q.tick()
	}))
}

// start staggers the initial campaigns by rank (so the first election
// converges in one round) and arms the follower monitor — plus the
// injected crash on the to-be leader.
func (m *quorumMember) start() {
	k := m.node.K
	m.lastHB = k.Monotonic()
	k.Usleep(50*sim.Millisecond*sim.Time(m.rank+1), func() {
		m.startElection()
	})
	m.monitor()
	if m.q.cfg.CrashLeaderAt > 0 && m.rank == len(m.peers)-1 {
		k.Usleep(m.q.cfg.CrashLeaderAt, func() {
			m.alive = false
			m.isLeader = false
			m.q.Crashes++
		})
	}
}

// monitor is the failure detector: a follower that has heard no
// heartbeat (and no coordinator announcement) for Timeout calls a
// re-election. Leaders and in-flight campaigns skip the check.
func (m *quorumMember) monitor() { m.node.K.Usleep(m.q.cfg.Heartbeat, m.onMonitor) }

func (m *quorumMember) monitorTick() {
	if !m.alive {
		return
	}
	if !m.isLeader && !m.electing && m.node.K.Monotonic()-m.lastHB > m.q.cfg.Timeout {
		m.startElection()
	}
	m.monitor()
}

// startElection runs one bully campaign: challenge every higher rank,
// and claim leadership if none answers within the timeout.
func (m *quorumMember) startElection() {
	if !m.alive || m.electing || m.isLeader {
		return
	}
	m.electing = true
	m.answered = false
	k := m.node.K
	for r := m.rank + 1; r < len(m.peers); r++ {
		m.q.pool.Send(k, m.peers[r].Addr, 120, "q.elect", "")
	}
	k.Usleep(m.q.cfg.Timeout, func() {
		if !m.alive || !m.electing {
			return
		}
		if m.answered {
			// A higher rank lives; its coordinator announcement should
			// follow. If it never does (it crashed mid-election), clear
			// the campaign and let the monitor retry.
			k.Usleep(2*m.q.cfg.Timeout, func() {
				m.electing = false
			})
			return
		}
		m.becomeLeader()
	})
}

// becomeLeader announces the victory to every other member and starts
// the heartbeat stream.
func (m *quorumMember) becomeLeader() {
	m.electing = false
	m.isLeader = true
	m.q.Elections++
	k := m.node.K
	for r, p := range m.peers {
		if r != m.rank {
			m.q.pool.Send(k, p.Addr, 150, "q.coord", m.node.Name)
		}
	}
	if m.q.cfg.OnOutcome != nil {
		m.q.cfg.OnOutcome("leader=" + m.node.Name)
	}
	m.q.tick()
	m.heartbeat()
}

// heartbeat is the leader's periodic announcement loop; it dies with
// the leader (alive guard) or with a demotion.
func (m *quorumMember) heartbeat() { m.node.K.Usleep(m.q.cfg.Heartbeat, m.onHeartbeat) }

func (m *quorumMember) heartbeatTick() {
	if !m.alive || !m.isLeader {
		return
	}
	for r, p := range m.peers {
		if r != m.rank {
			m.q.pool.Send(m.node.K, p.Addr, 100, "q.hb", "")
		}
	}
	m.heartbeat()
}
