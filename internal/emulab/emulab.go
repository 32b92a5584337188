// Package emulab models the testbed itself (paper §2): experiments
// defined as networks of nodes and links, swap-in that maps the network
// onto physical resources — loading node images, building VLANs, and
// interposing delay nodes on shaped links — plus the control-network
// services experiments rely on (DNS, NTP, NFS, and the event system).
//
// The parts that interact with checkpointing are faithful to §5.2:
// control services are stateless, and timestamps they emit are
// *transduced* between real time and an experiment's virtual time so a
// swapped-out experiment never observes the gap; the event system is
// implemented both in its historical server-side form (which mistimes
// events across checkpoints) and the paper's proposed
// inside-the-closed-world form.
package emulab

import (
	"fmt"

	"emucheck/internal/core"
	"emucheck/internal/dummynet"
	"emucheck/internal/firewall"
	"emucheck/internal/guest"
	"emucheck/internal/node"
	"emucheck/internal/notify"
	"emucheck/internal/ntpsim"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
	"emucheck/internal/storage"
	"emucheck/internal/swap"
	"emucheck/internal/xen"
	"emucheck/internal/xfer"
)

// NodeSpec declares one experiment node.
type NodeSpec struct {
	Name string
	// Swappable nodes get a branching-storage virtual disk so their
	// state can follow them across swap cycles.
	Swappable bool
}

// LinkSpec declares one duplex link. Zero Bandwidth means the raw
// 1 Gbps experiment fabric with no delay node interposed.
type LinkSpec struct {
	A, B      string
	Bandwidth simnet.Bitrate
	Delay     sim.Time
	Loss      float64
}

// Shaped reports whether the link needs a delay node.
func (l LinkSpec) Shaped() bool {
	return l.Bandwidth > 0 || l.Delay > 0 || l.Loss > 0
}

// LANSpec declares a switched LAN segment.
type LANSpec struct {
	Name    string
	Members []string
	// Bandwidth caps each member's access link (0 = NIC rate).
	Bandwidth simnet.Bitrate
}

// Spec is the static portion of an experiment definition.
type Spec struct {
	Name  string
	Nodes []NodeSpec
	Links []LinkSpec
	LANs  []LANSpec
}

// NodesNeeded reports the hardware demand of the spec: one machine per
// node plus one per shaped link for the interposed delay node.
func (sp Spec) NodesNeeded() int {
	shaped := 0
	for _, l := range sp.Links {
		if l.Shaped() {
			shaped++
		}
	}
	return len(sp.Nodes) + shaped
}

// Swappable reports whether every node carries a branching-storage disk,
// i.e. whether the experiment can be statefully swapped without losing
// node-local state.
func (sp Spec) Swappable() bool {
	for _, n := range sp.Nodes {
		if !n.Swappable {
			return false
		}
	}
	return len(sp.Nodes) > 0
}

// Testbed is the shared facility: hardware pool, control network,
// services.
type Testbed struct {
	S      *sim.Simulator
	Bus    *notify.Bus
	NTP    *ntpsim.Sync
	Server *xfer.Server
	Params node.Params

	// FreeNodes is the available hardware pool.
	FreeNodes int
	// PoolSize is the total hardware pool.
	PoolSize int

	experiments map[string]*Experiment
	// definitions retains specs of swapped-out experiments so they can be
	// re-admitted by name (classic Emulab keeps the definition, §2).
	definitions map[string]Spec
}

// NewTestbed creates a testbed with the given hardware pool size.
func NewTestbed(s *sim.Simulator, pool int) *Testbed {
	return &Testbed{
		S:           s,
		Bus:         notify.NewBus(s),
		NTP:         ntpsim.New(s, 0x7ab5),
		Server:      xfer.NewServer(s, 0),
		Params:      node.DefaultParams(),
		FreeNodes:   pool,
		PoolSize:    pool,
		experiments: make(map[string]*Experiment),
		definitions: make(map[string]Spec),
	}
}

// InUse reports how many pool machines are currently allocated.
func (tb *Testbed) InUse() int { return tb.PoolSize - tb.FreeNodes }

// Experiment returns a currently swapped-in experiment by name.
func (tb *Testbed) Experiment(name string) *Experiment { return tb.experiments[name] }

// ExpNode is one instantiated experiment node.
type ExpNode struct {
	Spec NodeSpec
	M    *node.Machine
	K    *guest.Kernel
	HV   *xen.Hypervisor
	Vol  *storage.Volume // nil unless swappable
}

// Experiment is a swapped-in experiment.
type Experiment struct {
	Spec       Spec
	TB         *Testbed
	Nodes      map[string]*ExpNode
	DelayNodes []*dummynet.DelayNode
	Coord      *core.Coordinator
	Swap       *swap.Manager
	Events     *EventSystem
	Services   *ControlServices

	allocated int  // machines charged against the pool (incl. delay nodes)
	released  bool // hardware returned to the pool while swapped out
}

// Allocated reports the experiment's hardware demand.
func (e *Experiment) Allocated() int { return e.allocated }

// Released reports whether the experiment's hardware is currently
// returned to the pool (parked, statefully swapped out).
func (e *Experiment) Released() bool { return e.released }

// SwapIn instantiates an experiment: allocate machines (one per node
// plus one per shaped link for the delay node), load images, build the
// network, start NTP, and boot.
func (tb *Testbed) SwapIn(spec Spec) (*Experiment, error) {
	if _, dup := tb.experiments[spec.Name]; dup {
		return nil, fmt.Errorf("emulab: experiment %q already swapped in", spec.Name)
	}
	needed := spec.NodesNeeded()
	if needed > tb.FreeNodes {
		return nil, fmt.Errorf("emulab: need %d nodes, %d free", needed, tb.FreeNodes)
	}
	tb.FreeNodes -= needed

	e := &Experiment{Spec: spec, TB: tb, Nodes: make(map[string]*ExpNode), allocated: needed}
	var members []*core.Member
	var swapNodes []*swap.Node
	for _, ns := range spec.Nodes {
		m := node.NewMachine(tb.S, ns.Name, tb.Params)
		k := guest.New(m, tb.Params, guest.DefaultConfig())
		var vol *storage.Volume
		if ns.Swappable {
			vol = storage.NewVolume(m.Disk, tb.Params.GuestDiskBytes, storage.Optimized)
			k.Backend = vol
		}
		hv := xen.New(m, tb.Params, k)
		en := &ExpNode{Spec: ns, M: m, K: k, HV: hv, Vol: vol}
		e.Nodes[ns.Name] = en
		tb.NTP.Start(ns.Name)
		members = append(members, &core.Member{Name: ns.Name, HV: hv})
		if ns.Swappable {
			swapNodes = append(swapNodes, &swap.Node{Name: ns.Name, HV: hv, Vol: vol, GoldenCached: true})
		}
	}

	// Build links. A node may sit on several links (and a LAN); the
	// physical machine has one experiment NIC per link, which the model
	// folds into a per-node output router that picks the egress segment
	// by destination (single L2 hop — Emulab links are switched
	// Ethernet; multi-hop forwarding is the guest's business).
	routes := make(map[string]map[simnet.Addr]simnet.Port)
	addRoute := func(from *ExpNode, to simnet.Addr, p simnet.Port) {
		if routes[from.Spec.Name] == nil {
			routes[from.Spec.Name] = make(map[simnet.Addr]simnet.Port)
		}
		routes[from.Spec.Name][to] = p
	}
	for i, l := range spec.Links {
		a, okA := e.Nodes[l.A]
		b, okB := e.Nodes[l.B]
		if !okA || !okB {
			return nil, fmt.Errorf("emulab: link %s-%s references unknown node", l.A, l.B)
		}
		if !l.Shaped() {
			addRoute(a, b.M.ExpNIC.Addr(), simnet.NewWire(tb.S, 2*sim.Microsecond, b.M.ExpNIC))
			addRoute(b, a.M.ExpNIC.Addr(), simnet.NewWire(tb.S, 2*sim.Microsecond, a.M.ExpNIC))
			continue
		}
		dn := dummynet.NewDelayNode(tb.S, fmt.Sprintf("%s-delay%d", spec.Name, i), l.Bandwidth, l.Delay)
		dn.SetLoss(l.Loss)
		// Endpoint-to-delay-node wires are the "zero-delay links" of
		// §4.4: only physically-in-flight packets escape the capture.
		addRoute(a, b.M.ExpNIC.Addr(), simnet.NewWire(tb.S, 2*sim.Microsecond, dn.Forward))
		addRoute(b, a.M.ExpNIC.Addr(), simnet.NewWire(tb.S, 2*sim.Microsecond, dn.Reverse))
		dn.AttachForward(b.M.ExpNIC)
		dn.AttachReverse(a.M.ExpNIC)
		e.DelayNodes = append(e.DelayNodes, dn)
		tb.NTP.Start(dn.Name)
	}

	// Build LANs.
	for _, lan := range spec.LANs {
		sw := simnet.NewSwitch(tb.S, 2*sim.Microsecond)
		for _, name := range lan.Members {
			n, ok := e.Nodes[name]
			if !ok {
				return nil, fmt.Errorf("emulab: LAN %s references unknown node %s", lan.Name, name)
			}
			sw.Connect(n.M.ExpNIC.Addr(), n.M.ExpNIC)
			for _, peer := range lan.Members {
				if peer != name {
					addRoute(n, simnet.Addr(peer), sw)
				}
			}
		}
	}

	// Attach each node's egress router. A node on one segment sends
	// everything there; one on several resolves the segment by
	// destination when it sends. Map order is harmless: each node's
	// attach touches only its own NIC and schedules nothing.
	for name, n := range e.Nodes {
		table := routes[name]
		for dst, p := range table {
			if len(table) == 1 {
				n.M.ExpNIC.Attach(p)
			} else {
				n.M.ExpNIC.Route(dst, p)
			}
		}
	}

	// Several experiments share one control LAN; scope the checkpoint
	// protocol so coordinators never act on each other's notifications —
	// and so the bus fans each publish out to this experiment's daemons
	// only, not every daemon on the testbed.
	e.Coord = core.NewScopedCoordinator(tb.S, tb.Bus, tb.NTP, spec.Name, members, e.DelayNodes)
	if len(swapNodes) > 0 {
		e.Swap = swap.NewManager(tb.S, tb.Server, e.Coord, swapNodes)
		e.Swap.Tag = spec.Name
	}
	e.Services = &ControlServices{tb: tb}
	e.Events = NewEventSystem(e, InExperiment)
	tb.experiments[spec.Name] = e
	delete(tb.definitions, spec.Name)
	return e, nil
}

// SwapOutStateless is the classic Emulab swap-out: hardware released,
// run-time state lost (§2). The experiment definition remains and can be
// swapped in again (from its initial state) via SwapInByName.
func (tb *Testbed) SwapOutStateless(e *Experiment) {
	e.Halt()
	// The discarded instance's control daemons stop listening; a
	// re-admission under the same name gets fresh ones.
	e.Coord.Shutdown()
	if !e.released {
		tb.FreeNodes += e.allocated
		e.released = true
	}
	delete(tb.experiments, e.Spec.Name)
	tb.definitions[e.Spec.Name] = e.Spec
}

// Definition returns the retained spec of a swapped-out experiment.
func (tb *Testbed) Definition(name string) (Spec, bool) {
	sp, ok := tb.definitions[name]
	return sp, ok
}

// SwapInByName re-instantiates a retained definition from its initial
// state — the re-admission half of classic stateless swapping.
func (tb *Testbed) SwapInByName(name string) (*Experiment, error) {
	sp, ok := tb.definitions[name]
	if !ok {
		return nil, fmt.Errorf("emulab: no retained definition %q", name)
	}
	return tb.SwapIn(sp)
}

// ReleaseHardware returns a statefully swapped-out experiment's machines
// to the pool without discarding the experiment: its state lives on the
// file server and it can be re-admitted with AcquireHardware + stateful
// swap-in. This is what lets a preemptive scheduler time-share the pool.
func (tb *Testbed) ReleaseHardware(e *Experiment) {
	if e.released {
		return
	}
	tb.FreeNodes += e.allocated
	e.released = true
}

// AcquireHardware re-allocates machines for a parked experiment ahead of
// its stateful swap-in.
func (tb *Testbed) AcquireHardware(e *Experiment) error {
	if !e.released {
		return nil
	}
	if e.allocated > tb.FreeNodes {
		return fmt.Errorf("emulab: need %d nodes, %d free", e.allocated, tb.FreeNodes)
	}
	tb.FreeNodes -= e.allocated
	e.released = false
	return nil
}

// Node returns a node by name.
func (e *Experiment) Node(name string) *ExpNode { return e.Nodes[name] }

// Halt freezes every guest and delay node with no intent to resume —
// the fate of run-time state under classic stateless swap-out (§2). The
// temporal firewalls engage and are never disengaged, so the discarded
// instance schedules no further work.
func (e *Experiment) Halt() {
	for _, ns := range e.Spec.Nodes {
		n := e.Nodes[ns.Name]
		if !n.K.Suspended() {
			// The drain completes in the background; nobody waits for a
			// discarded instance.
			_ = n.K.Suspend(func() {})
		}
	}
	for _, dn := range e.DelayNodes {
		dn.Freeze()
	}
}

// ControlServices models the Emulab server services an experiment may
// touch: DNS, NTP, and NFS. DNS and NTP are stateless by design; NFS v2
// is stateless but carries timestamps, which must be transduced between
// real and virtual time (§5.2) so a swapped experiment sees no gap.
type ControlServices struct {
	tb *Testbed

	// NFSTransduce disables/enables timestamp transduction, so tests
	// can demonstrate the anomaly it prevents.
	NFSTransduceOff bool

	Lookups uint64
}

// DNSLookup resolves an experiment-internal name (stateless; trivially
// checkpoint-safe).
func (cs *ControlServices) DNSLookup(name string) (simnet.Addr, error) {
	cs.Lookups++
	return simnet.Addr(name), nil
}

// NFSGetAttr reports a file's modification timestamp as observed by the
// asking guest. The server stamps in real wall time; the transducer
// rewrites inbound timestamps into the guest's virtual time (and
// outbound ones back), filtering NFS commands that carry timestamps.
func (cs *ControlServices) NFSGetAttr(k *guest.Kernel, mtimeReal sim.Time) sim.Time {
	if cs.NFSTransduceOff {
		return mtimeReal
	}
	// Transduction: shift by the gap between real and virtual time that
	// checkpoints have introduced for this guest.
	gap := cs.tb.S.Now() - k.Clock.SystemTime()
	v := mtimeReal - gap
	if v < 0 {
		v = 0
	}
	return v
}

// EventMode selects where the per-experiment event scheduler runs.
type EventMode int

// Event scheduler placements.
const (
	// ServerSide is the historical placement: the scheduler runs on an
	// Emulab server and dispatches in real time — it keeps ticking
	// while the experiment is frozen, mistiming events (§5.2).
	ServerSide EventMode = iota
	// InExperiment moves the scheduler into the closed world: events
	// arm guest timers inside the temporal firewall and are therefore
	// checkpoint-transparent (§5.2's proposed fix).
	InExperiment
)

// EventSystem is the distributed experiment-control event scheduler.
type EventSystem struct {
	e    *Experiment
	Mode EventMode

	Dispatched int
	// Mistimed counts events that fired at the wrong virtual time by
	// more than one jiffy — only possible in ServerSide mode.
	Mistimed int
}

// NewEventSystem creates the scheduler in the given placement.
func NewEventSystem(e *Experiment, mode EventMode) *EventSystem {
	return &EventSystem{e: e, Mode: mode}
}

// Schedule arranges for fn to run on the named node when that node's
// *virtual* clock reaches at.
func (ev *EventSystem) Schedule(nodeName string, at sim.Time, fn func()) error {
	n, ok := ev.e.Nodes[nodeName]
	if !ok {
		return fmt.Errorf("emulab: no node %q", nodeName)
	}
	check := func() {
		ev.Dispatched++
		got := n.K.Monotonic()
		diff := got - at
		if diff < 0 {
			diff = -diff
		}
		if diff > n.K.Jiffy() {
			ev.Mistimed++
		}
		fn()
	}
	switch ev.Mode {
	case InExperiment:
		// An agent inside the guest arms a firewall timer: checkpoints
		// freeze it along with everything else.
		d := at - n.K.Monotonic()
		n.K.FW.Do(firewall.TimerJob, d, "event."+nodeName, check)
	default:
		// The server dispatches in real time, assuming virtual==real.
		d := at - n.K.Monotonic() // correct only if no checkpoint intervenes
		ev.e.TB.S.DoAfter(d, "event.server."+nodeName, func() {
			if n.K.Suspended() {
				// Dispatch to a frozen node: the agent connection stalls;
				// deliver (mistimed) when the node resumes. Modeled as
				// immediate mistimed delivery on resume via a short poll.
				ev.deliverWhenLive(n, check)
				return
			}
			check()
		})
	}
	return nil
}

func (ev *EventSystem) deliverWhenLive(n *ExpNode, fn func()) {
	if !n.K.Suspended() {
		fn()
		return
	}
	ev.e.TB.S.DoAfter(100*sim.Millisecond, "event.retry", func() { ev.deliverWhenLive(n, fn) })
}
