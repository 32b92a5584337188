package federation

import (
	"container/list"
	"fmt"

	"emucheck/internal/notify"
	"emucheck/internal/sched"
	"emucheck/internal/sim"
	"emucheck/internal/storage"
	"emucheck/internal/swap"
)

// Facility is one federated testbed site: a self-contained simulated
// fleet — its own event world, scheduler, control-LAN bus and delta
// cache — coupled to its peers only through WAN messages exchanged at
// window barriers. Everything a Facility owns is touched exclusively
// by whichever worker goroutine is advancing its world (or by the
// single-threaded barrier), so facilities need no locks.
type Facility struct {
	Idx   int
	S     *sim.Simulator
	Sched *sched.Scheduler
	Bus   *notify.Bus
	// Cache is the facility's node-local delta cache: restores replay
	// checkpoint chains from here when resident, from the shared pool
	// when not. Migration warm-up pre-seeds it.
	Cache *storage.DeltaCache

	fed *Federation

	// outbox collects cross-facility messages emitted during the
	// current window; the barrier drains it. seq orders messages from
	// this facility within one timestamp.
	outbox []Message
	seq    int64
	// wanFree recycles the records of WAN deliveries into this world.
	wanFree []*wanDelivery

	// pendingCommit lists tenants whose chains grew this window; the
	// barrier flushes the new segments to the shared pool.
	pendingCommit []*tenant
	// sleepers is the FIFO of voluntarily parked tenants, in
	// fell-asleep order — the balancer migrates the longest sleeper.
	sleepers *list.List

	// ticks counts tenant activity ticks homed here; completed counts
	// tenants that finished while homed here.
	ticks     int64
	completed int

	// WAN ledgers (facility-local so window code never shares state):
	// WANDeliveries counts sync messages received, wanSum folds their
	// payloads so the digest is sensitive to exactly which messages
	// arrived.
	WANDeliveries int64
	wanSum        int64

	// Restore accounting: bytes served locally (cache) vs streamed
	// from the shared pool.
	LocalBytes  int64
	RemoteBytes int64

	// Arrivals and Departures count migrations in and out.
	Arrivals   int
	Departures int
}

// send queues a cross-facility message for the next barrier.
func (fac *Facility) send(m Message) {
	fac.seq++
	m.When = fac.S.Now()
	m.Src = fac.Idx
	m.Seq = fac.seq
	fac.outbox = append(fac.outbox, m)
}

// sleepPush appends a freshly parked sleeper; sleepRemove drops one
// that woke (or is migrating away); popSleeper hands the balancer the
// longest-sleeping tenant. The list is only touched by the facility's
// own world or the barrier, like everything else on the Facility.
func (fac *Facility) sleepPush(t *tenant) {
	t.sleepEl = fac.sleepers.PushBack(t)
}

func (fac *Facility) sleepRemove(t *tenant) {
	if t.sleepEl != nil {
		fac.sleepers.Remove(t.sleepEl)
		t.sleepEl = nil
	}
}

func (fac *Facility) popSleeper() *tenant {
	el := fac.sleepers.Front()
	if el == nil {
		return nil
	}
	t := el.Value.(*tenant)
	fac.sleepers.Remove(el)
	t.sleepEl = nil
	return t
}

// tenant is one synthetic experiment in the federated fleet. Two
// species, mixed 4:1: bursty tenants work a few seconds of activity
// ticks, park voluntarily and sleep, for a few cycles; hogs tick until
// their owed work is done, never yielding — the tenant preemption
// exists for. Each carries a content-addressed checkpoint chain in the
// shared pool and can migrate between facilities while parked.
type tenant struct {
	fed  *Federation
	fac  *Facility // current home; reassigned only at migration delivery
	id   int
	name string
	hog  bool
	job  *sched.Job

	timer    *sim.Timer // bound to fac.S; rebuilt on migration
	interval sim.Time

	burstLen int
	cycles   int
	idleDur  sim.Time
	owed     int

	ticks      int
	burstTicks int
	cycle      int
	sleeping   bool
	done       bool
	deliveries int64
	migrations int
	cancels    []func()
	pending    bool // chain has uncommitted segments
	sleepEl    *list.Element
	activity   notify.Msg     // the activity notification, built once
	pub        notify.Channel // activity's channel on fac.Bus, resolved at first publish

	// chain is the tenant's checkpoint chain; the prefix chain[:committed]
	// is authoritative in the shared pool (commits land at barriers).
	// Parks append pending delta segments up to a depth bound.
	chain     []storage.Segment
	committed int
	wakeAt    sim.Time // pending wake-up when sleeping, for migration handoff
}

// chainFor derives tenant id's initial checkpoint chain: 2-5 segments
// of a few hundred KB, addresses disjoint across the fleet.
func chainFor(id int) []storage.Segment {
	segs := 2 + id%4
	chain := make([]storage.Segment, 0, segs)
	for k := 0; k < segs; k++ {
		chain = append(chain, storage.Segment{
			Addr:  chainAddr(id, k),
			Bytes: int64(256+(id%7)*128) << 10,
		})
	}
	return chain
}

// chainAddr spaces tenant chains maxChainDepth addresses apart.
func chainAddr(id, k int) storage.Addr {
	return storage.Addr(1<<32 + id*maxChainDepth + k)
}

// maxChainDepth bounds a chain: past it, parks merge into the last
// delta instead of deepening the replay.
const maxChainDepth = 8

// newTenant creates tenant id homed at fac and wires its job. Every
// per-tenant parameter is a Mix64 draw over (seed, id), so the seed
// genuinely reshapes the workload — without consuming any facility's RNG stream, which only
// bus delivery jitter draws from. Hooks resolve t.fac at call time,
// so one closure set survives migration.
func (fed *Federation) newTenant(id int, fac *Facility) *tenant {
	draw := func(axis, n int64) int64 {
		return int64(sim.Mix64(fed.cfg.Seed, int64(id), axis) % uint64(n))
	}
	t := &tenant{
		fed: fed, fac: fac, id: id,
		name:     fmt.Sprintf("t%d", id),
		hog:      draw(1, 5) == 4,
		interval: 100*sim.Millisecond + sim.Time(draw(2, 7))*3*sim.Millisecond,
		chain:    chainFor(id),
	}
	t.activity = notify.Msg{Topic: "activity", From: t.name, Scope: t.name}
	if t.hog {
		t.owed = 120 + int(draw(3, 50))*3
	} else {
		t.burstLen = 24 + int(draw(4, 8))
		t.cycles = 2 + int(draw(5, 3))
		t.idleDur = 5*sim.Second + sim.Time(draw(6, 5))*500*sim.Millisecond
	}
	t.bind(fac)
	return t
}

// bind attaches the tenant to a facility: timer, bus subscriptions
// and a fresh scheduler job (sched jobs are single-use; a migrated
// tenant re-enters the destination's queue as a new submission).
func (t *tenant) bind(fac *Facility) {
	t.fac = fac
	t.pub = notify.Channel{}
	t.timer = fac.S.NewTimer("fed.tick", t.fire)
	t.job = &sched.Job{
		Name: t.name, Need: 1, Preemptible: true,
		Hooks: sched.Hooks{
			Start:    t.start,
			Park:     t.park,
			Resume:   t.resume,
			ParkCost: func() int64 { return int64(1+t.id%16) << 20 },
		},
	}
	for k := 0; k < 2; k++ {
		t.cancels = append(t.cancels, fac.Bus.SubscribeScoped("activity", t.name, t.name, func(*notify.Msg) {
			t.deliveries++
		}))
	}
}

// unbind detaches the tenant from its facility at migration
// departure: the wake timer is disarmed and the scoped subscriptions
// dropped. Runs at the barrier, with the source world stopped.
func (t *tenant) unbind() {
	t.fac.sleepRemove(t)
	t.wakeAt = t.timer.When()
	t.timer.Stop()
	for _, cancel := range t.cancels {
		cancel()
	}
	t.cancels = t.cancels[:0]
}

// start is the admission hook: boot plus, for a tenant with committed
// checkpoint state (a migrated or previously parked one), the chain
// restore — served from the facility cache where resident, streamed
// from the shared pool where not.
func (t *tenant) start(done func(error)) {
	d := 2*sim.Second + t.restoreCost()
	t.fac.S.DoAfter(d, "fed.start", func() {
		done(nil)
		t.timer.Reset(t.interval)
	})
}

// park is the swap-out hook: it stops the activity timer, appends one
// dirty-delta segment to the chain (committed to the shared pool at
// the next barrier) and, for a voluntary park, arms the wake-up.
func (t *tenant) park(done func(error)) {
	t.dirty()
	t.fac.S.DoAfter(sim.Second, "fed.park", func() {
		t.timer.Stop()
		done(nil)
		if t.sleeping {
			t.timer.Reset(t.idleDur)
			t.wakeAt = t.timer.When()
			t.fac.sleepPush(t)
		}
	})
}

// resume is the swap-in hook: chain replay priced like start's.
func (t *tenant) resume(done func(error)) {
	d := 1500*sim.Millisecond + t.restoreCost()
	t.fac.S.DoAfter(d, "fed.resume", func() {
		done(nil)
		t.timer.Reset(t.interval)
	})
}

// dirty appends one pending delta segment. At full depth the chain
// stops growing — the depth bound that keeps replay cost flat (the
// merged tail is already authoritative in the pool, so re-committing
// it would change a content-addressed segment under its address).
func (t *tenant) dirty() {
	if len(t.chain) >= maxChainDepth {
		return
	}
	t.chain = append(t.chain, storage.Segment{
		Addr:  chainAddr(t.id, len(t.chain)),
		Bytes: int64(128+(t.id%5)*64) << 10,
	})
	if !t.pending {
		t.pending = true
		t.fac.pendingCommit = append(t.fac.pendingCommit, t)
	}
}

// restoreCost replays the committed chain through the facility cache
// and prices it: local bytes at cache media speed, remote bytes at
// one pool round trip per miss plus the control-LAN stream rate.
func (t *tenant) restoreCost() sim.Time {
	if t.committed == 0 {
		return 0
	}
	fac := t.fac
	local, remote := swap.RestoreChain(t.chain[:t.committed], fac.Cache, t.fed.Pool)
	fac.LocalBytes += local
	fac.RemoteBytes += remote
	d := fac.Cache.ReadCost(local)
	if remote > 0 {
		d += t.fed.Pool.Cost(remote) + sim.Time(remote*int64(sim.Second)/lanStreamRate)
	}
	return d
}

// lanStreamRate prices pool restores over the facility control LAN
// (100 Mbps, the §7.2 bottleneck) in bytes/second.
const lanStreamRate = 100_000_000 / 8

// fire is the tenant's timer callback: wake-up when sleeping, an
// activity tick when running.
func (t *tenant) fire() {
	fac := t.fac
	if t.sleeping {
		t.sleeping = false
		fac.sleepRemove(t)
		if err := fac.Sched.Unpark(t.name); err != nil {
			panic("federation: unpark " + t.name + ": " + err.Error())
		}
		return
	}
	if t.job.State() != sched.Running {
		return
	}
	t.ticks++
	fac.ticks++
	fac.Sched.Touch(t.job)
	if t.ticks%8 == 0 {
		if t.pub == (notify.Channel{}) {
			t.pub = fac.Bus.Channel(t.activity.Topic, t.activity.Scope)
		}
		fac.Bus.PublishOn(t.pub, &t.activity)
	}
	if t.ticks%16 == 8 && t.fed.nFacilities() > 1 {
		// Cross-facility sync chatter: the WAN coupling that the
		// conservative windows exist to order. Destination is a pure
		// function of (id, tick) so the traffic pattern is identical at
		// every worker count.
		dst := (t.id + 1 + t.ticks%3) % t.fed.nFacilities()
		if dst == fac.Idx {
			dst = (dst + 1) % t.fed.nFacilities()
		}
		fac.send(Message{
			Kind: msgSync, Dst: dst,
			Bytes:   int64(4+t.id%16) << 10,
			Payload: int64(t.id)*1_000_000 + int64(t.ticks),
		})
	}
	if t.hog {
		if t.ticks >= t.owed {
			t.finish()
			return
		}
	} else {
		t.burstTicks++
		if t.burstTicks >= t.burstLen {
			t.burstTicks = 0
			t.cycle++
			if t.cycle >= t.cycles {
				t.finish()
				return
			}
			t.sleeping = true
			if err := fac.Sched.Park(t.name); err != nil {
				panic("federation: park " + t.name + ": " + err.Error())
			}
			return
		}
	}
	t.timer.Reset(t.interval)
}

// finish retires the tenant at its current facility.
func (t *tenant) finish() {
	t.timer.Stop()
	for _, cancel := range t.cancels {
		cancel()
	}
	t.cancels = t.cancels[:0]
	if err := t.fac.Sched.Finish(t.name); err != nil {
		panic("federation: finish " + t.name + ": " + err.Error())
	}
	t.done = true
	t.fac.completed++
}
