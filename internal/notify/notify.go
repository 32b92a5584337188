// Package notify implements the fast publish–subscribe checkpoint
// notification bus the paper builds on Emulab's dedicated control
// network (§4.3). Every node subscribes; any node (or the testbed
// itself) publishes "checkpoint now", "checkpoint at time t", "resume"
// and barrier-arrival notifications.
//
// Delivery latency models one control-LAN hop plus daemon processing,
// with jitter — precisely the variability that makes purely
// notification-driven ("checkpoint now") synchronization inferior to
// clock-scheduled checkpoints, as §4.3 argues and our tests show.
//
// The bus is also the control plane's fault surface: an Inject hook
// lets the fault layer drop or delay individual deliveries, and
// per-topic delivery stats (published/delivered/dropped) make lost
// notifications observable in run results instead of silent.
package notify

import (
	"emucheck/internal/sim"
)

// Topic names used by the checkpoint protocol.
const (
	TopicCheckpoint = "checkpoint"
	TopicResume     = "resume"
	TopicBarrier    = "barrier"
	// TopicAbort announces a failed checkpoint epoch: a save error or a
	// straggler timeout sank the barrier, and the epoch's state must be
	// discarded (it will never be committed).
	TopicAbort = "abort"
)

// Msg is one bus notification.
type Msg struct {
	Topic string
	From  string
	// Scope names the experiment the message belongs to. The control LAN
	// is shared by every experiment on the testbed, so daemons filter on
	// scope: a checkpoint notification for one experiment must not
	// trigger saves in another.
	Scope string
	// At is the scheduled global time for scheduled checkpoints/resumes;
	// zero means "now" (event-driven).
	At sim.Time
	// Epoch identifies the checkpoint generation the message refers to.
	Epoch int
	Data  any
}

// TopicStats counts one topic's control-LAN traffic. Published counts
// messages; Delivered and Dropped count per-subscriber deliveries (one
// message fans out to many daemons).
type TopicStats struct {
	Published uint64
	Delivered uint64
	Dropped   uint64
}

// Bus is the control-network notification service.
type Bus struct {
	s *sim.Simulator

	// BaseLatency and JitterMax model control-net delivery: transmission
	// plus stack processing plus VM scheduling variability.
	BaseLatency sim.Time
	JitterMax   sim.Time

	// Inject, when set, is consulted once per subscriber delivery and
	// may suppress it or add latency — the fault layer's hook for
	// control-LAN message loss and delay. owner is the subscribing
	// daemon's identity ("" for anonymous subscriptions).
	Inject func(m *Msg, owner string) (drop bool, extra sim.Time)

	// subs indexes subscribers by (topic, scope). The shared control
	// LAN carries every experiment's notifications, but a daemon only
	// ever acts on its own experiment's — so fan-out resolves the
	// scoped bucket directly instead of delivering to every daemon on
	// the testbed and letting each one discard the message. At 10k
	// tenants that turns each checkpoint publish from O(all daemons on
	// the LAN) scheduled deliveries into O(one experiment's daemons).
	// Lookup only; never iterated — delivery order within a publish is
	// bucket registration order, scoped bucket before anonymous.
	subs map[subKey]*bucket

	Published uint64
	Delivered uint64
	// Dropped counts deliveries suppressed by the Inject hook — the
	// observable record of lost notifications.
	Dropped uint64
	// Attempts counts per-subscriber delivery attempts (the fan-out of
	// Published over live subscribers). Every attempt ends up delivered,
	// dropped, or still in flight at the observation instant, so
	// Attempts == Delivered + Dropped + InFlight() always — the bus
	// conservation law the suite runner audits after every run.
	Attempts uint64

	perTopic map[string]*topicEntry
	free     []*delivery // recycled delivery records
}

// InFlight reports delivery attempts scheduled but not yet delivered —
// control-LAN packets still in the air when the run's horizon cut.
func (b *Bus) InFlight() uint64 { return b.Attempts - b.Delivered - b.Dropped }

// subKey addresses one (topic, scope) subscriber bucket; scope "" is
// the anonymous bucket receiving every publish on the topic.
type subKey struct {
	topic, scope string
}

// bucket holds one (topic, scope)'s subscribers in registration order.
// Cancellation marks and counts; the bucket compacts (preserving
// order) on publish and eagerly once removals pass half the list, so
// torn-down tenants stop costing both fan-out work and memory.
type bucket struct {
	subs    []*subscriber
	removed int
}

// compact drops cancelled subscribers, preserving registration order.
func (bk *bucket) compact() {
	live := bk.subs[:0]
	for _, sub := range bk.subs {
		if !sub.removed {
			live = append(live, sub)
		}
	}
	for i := len(live); i < len(bk.subs); i++ {
		bk.subs[i] = nil
	}
	bk.subs = live
	bk.removed = 0
}

type subscriber struct {
	h       func(*Msg)
	owner   string
	removed bool
}

// NewBus creates a bus with the default latency model (a 100 Mbps
// switched control LAN: ~180 µs base, up to 1.2 ms of jitter).
func NewBus(s *sim.Simulator) *Bus {
	return &Bus{
		s:           s,
		BaseLatency: 180 * sim.Microsecond,
		JitterMax:   1200 * sim.Microsecond,
		subs:        make(map[subKey]*bucket),
		perTopic:    make(map[string]*topicEntry),
	}
}

// topicEntry is the bus's per-topic bookkeeping: the exported stats
// plus the delivery event label, built once per topic instead of once
// per publish — at fleet scale the "bus."+topic concatenation was a
// measurable per-publish allocation (docs/scale.md).
type topicEntry struct {
	TopicStats
	label string
}

// Topic reports one topic's delivery stats.
func (b *Bus) Topic(topic string) TopicStats {
	if st := b.perTopic[topic]; st != nil {
		return st.TopicStats
	}
	return TopicStats{}
}

// Topics reports every topic's delivery stats, copied for reporting.
func (b *Bus) Topics() map[string]TopicStats {
	out := make(map[string]TopicStats, len(b.perTopic))
	// Map order is harmless: this copies into another map.
	for t, st := range b.perTopic {
		out[t] = st.TopicStats
	}
	return out
}

// Subscribe registers a handler for a topic and returns a cancel
// function — a torn-down experiment's daemons must stop listening, or
// a re-admitted experiment with the same name would have two sets of
// ears on the control LAN. Handlers run on the subscriber's node-local
// daemon, outside any guest firewall — checkpoint control must keep
// working while guests are frozen. An unscoped subscriber hears every
// publish on the topic.
func (b *Bus) Subscribe(topic string, h func(*Msg)) func() {
	return b.SubscribeScoped(topic, "", "", h)
}

// SubscribeScoped is Subscribe with the subscribing daemon's identity
// attached (a node name, so fault injection can target one daemon's
// copy of a fan-out: "drop node X's checkpoint notification"),
// narrowed to one experiment's notifications: the handler only
// receives publishes whose Msg.Scope matches (plus unscoped
// broadcasts). Handlers always filtered on
// scope anyway — subscribing scoped moves that filter into the bus
// index, so a publish never schedules deliveries to the other
// tenants' daemons at all. Scope "" subscribes to everything.
func (b *Bus) SubscribeScoped(topic, scope, owner string, h func(*Msg)) func() {
	bk := b.bucket(topic, scope)
	sub := &subscriber{h: h, owner: owner}
	bk.subs = append(bk.subs, sub)
	return func() {
		if sub.removed {
			return
		}
		sub.removed = true
		bk.removed++
		if bk.removed*2 > len(bk.subs) {
			bk.compact()
		}
	}
}

// bucket returns the (topic, scope) subscriber bucket, creating it.
func (b *Bus) bucket(topic, scope string) *bucket {
	key := subKey{topic: topic, scope: scope}
	bk := b.subs[key]
	if bk == nil {
		bk = &bucket{}
		b.subs[key] = bk
	}
	return bk
}

// Channel is a (topic, scope) resolved for repeated publishing. Its
// buckets are never removed from subs, so it never goes stale. The
// zero Channel is unresolved.
type Channel struct {
	ts           *topicEntry
	scoped, anon *bucket
}

// Channel resolves (topic, scope) for PublishOn.
func (b *Bus) Channel(topic, scope string) Channel {
	ch := Channel{ts: b.perTopic[topic], anon: b.bucket(topic, "")}
	if ch.ts == nil {
		ch.ts = &topicEntry{label: "bus." + topic}
		b.perTopic[topic] = ch.ts
	}
	if scope != "" {
		ch.scoped = b.bucket(topic, scope)
	}
	return ch
}

// Publish fans the message out with independent per-subscriber
// delivery delays: to the message's scope bucket, then to the
// anonymous (scope "") bucket. Daemons of other experiments are never
// touched.
func (b *Bus) Publish(m *Msg) { b.PublishOn(b.Channel(m.Topic, m.Scope), m) }

// PublishOn is Publish on the channel resolved from m's topic and scope.
func (b *Bus) PublishOn(ch Channel, m *Msg) {
	b.Published++
	ch.ts.Published++
	if ch.scoped != nil {
		b.deliver(m, ch.scoped, ch.ts)
	}
	b.deliver(m, ch.anon, ch.ts)
}

// deliver schedules one bucket's deliveries, compacting out cancelled
// subscribers first.
func (b *Bus) deliver(m *Msg, bk *bucket, ts *topicEntry) {
	if bk.removed > 0 {
		bk.compact()
	}
	for _, sub := range bk.subs {
		b.Attempts++
		d := b.BaseLatency + b.s.Jitter(b.JitterMax)
		if b.Inject != nil {
			drop, extra := b.Inject(m, sub.owner)
			if drop {
				b.Dropped++
				ts.Dropped++
				continue
			}
			d += extra
		}
		b.s.DoAfter(d, ts.label, b.newDelivery(m, sub.h, ts).fire)
	}
}

// delivery is one scheduled subscriber delivery: fire, bound once when
// the record is first made, counts it and hands m to h. Records return
// to the bus's free list before the handler runs, so steady fan-out
// allocates nothing.
type delivery struct {
	b    *Bus
	m    *Msg
	h    func(*Msg)
	ts   *topicEntry
	fire func()
}

// newDelivery takes a record off the free list, or makes one.
func (b *Bus) newDelivery(m *Msg, h func(*Msg), ts *topicEntry) *delivery {
	var d *delivery
	if n := len(b.free); n > 0 {
		d = b.free[n-1]
		b.free = b.free[:n-1]
	} else {
		d = &delivery{b: b}
		d.fire = d.run
	}
	d.m, d.h, d.ts = m, h, ts
	return d
}

func (d *delivery) run() {
	b, m, h, ts := d.b, d.m, d.h, d.ts
	d.m, d.h, d.ts = nil, nil, nil
	b.free = append(b.free, d)
	b.Delivered++
	ts.Delivered++
	h(m)
}

// Barrier counts arrivals for one checkpoint epoch and fires when all
// expected parties have reported. The coordinator uses it to detect that
// every node finished its local save before publishing "resume" (§4.3).
type Barrier struct {
	need    int
	arrived map[string]bool
	fire    func()
	done    bool
}

// NewBarrier creates a barrier expecting need distinct parties.
func NewBarrier(need int, fire func()) *Barrier {
	return &Barrier{need: need, arrived: make(map[string]bool), fire: fire}
}

// Arrive records a party; duplicate arrivals are idempotent. When the
// last party arrives the completion callback fires synchronously.
func (b *Barrier) Arrive(who string) {
	if b.done || b.arrived[who] {
		return
	}
	b.arrived[who] = true
	if len(b.arrived) >= b.need {
		b.done = true
		b.fire()
	}
}

// Done reports whether the barrier has fired.
func (b *Barrier) Done() bool { return b.done }

// Arrived reports how many distinct parties have arrived.
func (b *Barrier) Arrived() int { return len(b.arrived) }

// Has reports whether the named party has arrived — the straggler test
// when a save deadline expires.
func (b *Barrier) Has(who string) bool { return b.arrived[who] }
