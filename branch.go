package emucheck

import (
	"fmt"

	"emucheck/internal/emulab"
	"emucheck/internal/sched"
	"emucheck/internal/storage"
	"emucheck/internal/swap"
	"emucheck/internal/timetravel"
)

// BranchSpec describes one branch of a fan-out: the perturbation it
// explores and (optionally) its own workload. Branches re-execute the
// scenario's workload from the fork — restore-by-re-execution, the
// transparency property that makes checkpoints addressable by virtual
// time — while the *transfer* cost of materializing their state is
// charged through the shared checkpoint-chain machinery.
type BranchSpec struct {
	// Name is the branch tenant's name (default "<parent>.bN").
	Name string
	// Perturb is the relaxed-determinism knob for this branch. In a
	// shared cluster only per-tenant perturbations apply: TimeDilation
	// skews the branch's guest clocks, and a SeedChange seed is
	// delivered to the workload via Session.Perturb for
	// workload-visible divergence.
	Perturb Perturbation
	// Setup overrides the parent's workload (default: the parent
	// scenario's Setup, re-installed against the branch's nodes through
	// the logical-name alias).
	Setup func(*Session)
	// Priority orders the branch under the Priority policy.
	Priority int
}

// branchStaging is the shared restore of one fan-out batch: the
// checkpoint prefix every branch needs (lineage replay + memory
// images) crosses the control LAN once, Frisbee-style multicast to all
// co-scheduled branch nodes. Branch start hooks rendezvous here; the
// first to fire starts the transfer, the rest wait on it.
type branchStaging struct {
	c         *Cluster
	tag       string
	bytes     int64
	receivers int
	started   bool
	finished  bool
	waiters   []func()
}

func (st *branchStaging) wait(fn func()) {
	if st.finished {
		fn()
		return
	}
	st.waiters = append(st.waiters, fn)
	if st.started {
		return
	}
	st.started = true
	st.c.TB.Server.Multicast(st.tag, st.bytes, st.receivers, func() {
		st.finished = true
		ws := st.waiters
		st.waiters = nil
		for _, w := range ws {
			w()
		}
	})
}

// cloneSpec maps the parent's network onto branch-unique physical node
// names (node names are control-network identities), returning the
// alias from the parent's logical names.
func cloneSpec(bname string, parent emulab.Spec) (emulab.Spec, map[string]string) {
	alias := make(map[string]string, len(parent.Nodes))
	sp := emulab.Spec{Name: bname}
	for _, ns := range parent.Nodes {
		phys := bname + "." + ns.Name
		alias[ns.Name] = phys
		sp.Nodes = append(sp.Nodes, emulab.NodeSpec{Name: phys, Swappable: ns.Swappable})
	}
	for _, l := range parent.Links {
		sp.Links = append(sp.Links, emulab.LinkSpec{
			A: alias[l.A], B: alias[l.B],
			Bandwidth: l.Bandwidth, Delay: l.Delay, Loss: l.Loss,
		})
	}
	for _, lan := range parent.LANs {
		members := make([]string, len(lan.Members))
		for i, m := range lan.Members {
			members[i] = alias[m]
		}
		sp.LANs = append(sp.LANs, emulab.LANSpec{
			Name: bname + "." + lan.Name, Members: members, Bandwidth: lan.Bandwidth,
		})
	}
	return sp, alias
}

// Branch forks a running tenant at one of its recorded checkpoints
// into a batch of concurrently exploring branch tenants — the paper's
// §6 "branch from past execution checkpoints to test unexplored
// states", promoted from a single-session replay trick to a cluster
// subsystem:
//
//   - The parent's current state is committed to its per-node
//     checkpoint chains (the branch point), and every branch adopts a
//     refcounted fork of those chains: base and common deltas are
//     shared by reference in the cluster's content-addressed store, so
//     an N-way fan-out adds no server-side copies of the prefix.
//   - The shared prefix (chain replay + memory images) is staged to
//     the whole batch by one multicast over the control LAN; each
//     branch's private divergence moves individually thereafter
//     (clone-aware restore skips segments already resident).
//   - The batch is gang-admitted: the scheduler co-schedules all
//     branches (preempting victims for the combined demand) instead of
//     trickling them through the FIFO one service window at a time.
//   - Genealogy is tracked: Session.Parent/Children and
//     Cluster.Genealogy report the fork tree, and finishing a branch
//     releases its chain references so unreachable deltas are GC'd.
//
// With NaiveBranchCopy set, every branch instead stages its own full
// unicast copy and parks under the cluster's plain transfer mode — the
// per-branch full-copy baseline the shared path is measured against.
func (c *Cluster) Branch(parent string, ckpt TreeNodeID, specs ...BranchSpec) ([]*Session, error) {
	psess := c.byName[parent]
	if psess == nil {
		return nil, fmt.Errorf("emucheck: no experiment %q to branch from", parent)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("emucheck: branch fan-out needs at least one spec")
	}
	if psess.Exp == nil || psess.Exp.Swap == nil {
		return nil, fmt.Errorf("emucheck: %q is %s; branching needs an in-service swappable parent", parent, psess.State())
	}
	if _, ok := psess.Tree.Get(ckpt); !ok {
		return nil, fmt.Errorf("emucheck: %q has no checkpoint %d", parent, ckpt)
	}

	// Validate every branch name and node identity before mutating any
	// cluster state — a rejected fan-out must leave the parent's chains,
	// the store, and the server's byte ledgers untouched.
	names := make([]string, len(specs))
	branchSpecs := make([]emulab.Spec, len(specs))
	aliases := make([]map[string]string, len(specs))
	for i, bs := range specs {
		name := bs.Name
		if name == "" {
			name = fmt.Sprintf("%s.b%d", parent, len(psess.children)+i+1)
		}
		if old, dup := c.byName[name]; dup && old.State() != "done" {
			return nil, fmt.Errorf("emucheck: branch %q already submitted", name)
		}
		names[i] = name
		branchSpecs[i], aliases[i] = cloneSpec(name, psess.Scenario.Spec)
		for _, ns := range branchSpecs[i].Nodes {
			if owner, taken := c.nodeOwner[ns.Name]; taken {
				return nil, fmt.Errorf("emucheck: branch node %q already used by %q", ns.Name, owner)
			}
		}
	}
	// Gang capacity is SubmitGang's rejection, but it must fire before
	// the branch-point commit below for the same reason.
	gangNeed := 0
	for i := range specs {
		gangNeed += branchSpecs[i].NodesNeeded()
	}
	if gangNeed > c.Sched.Capacity {
		return nil, fmt.Errorf("emucheck: branch gang needs %d nodes, pool is %d", gangNeed, c.Sched.Capacity)
	}

	// Branch point: commit the parent's live divergence to its chains so
	// the fork prefix is complete on the file server. This is the commit
	// half of an incremental swap-out (the parent keeps running); the
	// delta upload is charged to the parent on the shared pipe.
	mgr := psess.Exp.Swap
	mgr.Chains = c.Chains
	var prefixBytes, memBytes int64
	for _, n := range mgr.Nodes {
		lin := mgr.Lineage(n.Name)
		blocks := n.Vol.EpochBlocks(n.IsFree)
		if blocks.Blocks() > 0 || lin.Epochs() == 0 {
			e := lin.Commit(blocks, int(n.HV.K.MemoryImageBytes()/int64(n.HV.P.PageSize)))
			lin.Drop(n.IsFree)
			if e.DiskBytes() > 0 {
				c.TB.Server.StreamUpload(mgr.Tag, e.DiskBytes(), func() {})
			}
			n.Vol.Merge(n.IsFree)
		}
		n.MarkResident(lin)
		prefixBytes += lin.ReplayBytes()
		memBytes += n.HV.K.MemoryImageBytes()
	}

	staging := &branchStaging{
		c: c, tag: parent + ".branch",
		bytes: prefixBytes + memBytes, receivers: len(specs),
	}
	naiveBytes := prefixBytes + memBytes

	sessions := make([]*Session, len(specs))
	jobs := make([]*sched.Job, len(specs))
	for i, bs := range specs {
		setup := bs.Setup
		if setup == nil {
			setup = psess.Scenario.Setup
		}
		sess := &Session{
			Scenario: Scenario{Spec: branchSpecs[i], Setup: setup},
			Seed:     c.Seed, Priority: bs.Priority,
			C: c, S: c.S, TB: c.TB,
			Tree:       timetravel.NewTree(146 << 30),
			perturb:    bs.Perturb,
			branch:     ckpt,
			parentName: parent,
			alias:      aliases[i],
		}
		// Fork the parent's chains for the branch's physical node names —
		// by reference in the shared store, or as the naive baseline's
		// private full server-side copy.
		sess.branchLineages = make(map[string]*storage.Lineage)
		for _, n := range mgr.Nodes {
			plin := mgr.Lineage(n.Name)
			if c.NaiveBranchCopy {
				nl := storage.NewLineage(0)
				nl.Commit(plin.Materialize(), 0)
				sess.branchLineages[aliases[i][n.Name]] = nl
				continue
			}
			sess.branchLineages[aliases[i][n.Name]] = plin.Fork()
		}
		sess.job = &sched.Job{
			Name: names[i], Need: branchSpecs[i].NodesNeeded(), Priority: bs.Priority,
			Preemptible: true,
			Hooks: sched.Hooks{
				Start:    func(done func(error)) { c.startBranch(sess, staging, naiveBytes, done) },
				Park:     func(done func(error)) { c.parkTenant(sess, done) },
				Resume:   func(done func(error)) { c.resumeTenant(sess, done) },
				ParkCost: func() int64 { return c.parkCost(sess) },
			},
		}
		sessions[i] = sess
		jobs[i] = sess.job
	}
	if err := c.Sched.SubmitGang(jobs); err != nil {
		// Unwind the forks: drop the references the rejected branches
		// held so the store does not pin their epochs forever.
		for _, sess := range sessions {
			for _, lin := range sess.branchLineages {
				lin.Release()
			}
		}
		return nil, err
	}
	for i, sess := range sessions {
		c.adopt(sess)
		psess.children = append(psess.children, names[i])
	}
	return sessions, nil
}

// startBranch is a branch's first-admission hook: provision hardware,
// stage the parent's checkpoint state (shared multicast or naive
// unicast), adopt the forked chains, and install the workload under
// the branch's perturbation.
func (c *Cluster) startBranch(sess *Session, staging *branchStaging, naiveBytes int64, done func(error)) {
	stage := func(fn func()) {
		if c.NaiveBranchCopy {
			// The baseline: this branch's own full copy of prefix + memory,
			// contending with its siblings' identical copies for the pipe.
			c.TB.Server.StreamDownload(sess.Scenario.Spec.Name, naiveBytes, fn)
			return
		}
		staging.wait(fn)
	}
	c.S.DoAfter(swap.NodeSetupTime, "cluster.branch-provision", func() {
		stage(func() {
			exp, err := c.TB.SwapIn(sess.Scenario.Spec)
			if err != nil {
				sess.LastErr = fmt.Errorf("emucheck: branch %s: %v", sess.Scenario.Spec.Name, err)
				done(sess.LastErr)
				return
			}
			c.wireTenant(sess, exp)
			if exp.Swap != nil {
				if c.NaiveBranchCopy {
					// Content-addressed sharing is the point of the shared
					// path; the naive baseline keeps private per-node chains
					// (full server-side copies), as a no-sharing facility
					// would.
					exp.Swap.Chains = nil
				}
				for _, n := range exp.Swap.Nodes {
					if lin := sess.branchLineages[n.Name]; lin != nil {
						exp.Swap.AdoptLineage(n.Name, lin)
						// The multicast landed the prefix on this node.
						n.MarkResident(lin)
					}
				}
			}
			sess.applyDilation()
			if sess.Scenario.Setup != nil {
				sess.Scenario.Setup(sess)
			}
			done(nil)
		})
	})
}
