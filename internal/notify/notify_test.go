package notify

import (
	"fmt"
	"strings"
	"testing"

	"emucheck/internal/sim"
)

func TestPublishDeliversToAllSubscribers(t *testing.T) {
	s := sim.New(1)
	b := NewBus(s)
	got := 0
	for i := 0; i < 5; i++ {
		b.Subscribe(TopicCheckpoint, func(m *Msg) { got++ })
	}
	b.Publish(&Msg{Topic: TopicCheckpoint, From: "boss", Epoch: 1})
	s.Run()
	if got != 5 {
		t.Fatalf("delivered %d", got)
	}
	if b.Published != 1 || b.Delivered != 5 {
		t.Fatal("counters")
	}
}

func TestTopicsAreIsolated(t *testing.T) {
	s := sim.New(1)
	b := NewBus(s)
	ck, rs := 0, 0
	b.Subscribe(TopicCheckpoint, func(*Msg) { ck++ })
	b.Subscribe(TopicResume, func(*Msg) { rs++ })
	b.Publish(&Msg{Topic: TopicResume})
	s.Run()
	if ck != 0 || rs != 1 {
		t.Fatalf("ck=%d rs=%d", ck, rs)
	}
}

func TestDeliveryLatencyVariability(t *testing.T) {
	s := sim.New(1)
	b := NewBus(s)
	var times []sim.Time
	for i := 0; i < 50; i++ {
		b.Subscribe(TopicCheckpoint, func(*Msg) { times = append(times, s.Now()) })
	}
	b.Publish(&Msg{Topic: TopicCheckpoint})
	s.Run()
	min, max := sim.Never, sim.Time(0)
	for _, ti := range times {
		if ti < min {
			min = ti
		}
		if ti > max {
			max = ti
		}
	}
	if min < b.BaseLatency {
		t.Fatalf("delivery before base latency: %v", min)
	}
	if max-min < 100*sim.Microsecond {
		t.Fatalf("no jitter spread: %v..%v", min, max)
	}
	if max > b.BaseLatency+b.JitterMax {
		t.Fatalf("delivery too late: %v", max)
	}
}

// TestScopedPublishReachesOnlyItsScope: with two subscribers per
// scope across many scopes, each publish reaches exactly its own
// scope's pair, so Delivered is twice Published — no other tenant's
// daemon is touched.
func TestScopedPublishReachesOnlyItsScope(t *testing.T) {
	s := sim.New(1)
	b := NewBus(s)
	const scopes, perScope = 8, 2
	got := make([]int, scopes)
	for i := 0; i < scopes; i++ {
		scope := fmt.Sprintf("t%d", i)
		for k := 0; k < perScope; k++ {
			b.SubscribeScoped(TopicCheckpoint, scope, scope, func(m *Msg) {
				if m.Scope != scope {
					t.Errorf("subscriber of %s got a publish scoped to %s", scope, m.Scope)
				}
				got[i]++
			})
		}
	}
	// Scope t3 publishes three times, t5 once; the rest stay silent.
	for _, scope := range []string{"t3", "t3", "t5", "t3"} {
		b.Publish(&Msg{Topic: TopicCheckpoint, From: scope, Scope: scope})
	}
	s.Run()
	for i, n := range got {
		want := 0
		switch i {
		case 3:
			want = 3 * perScope
		case 5:
			want = perScope
		}
		if n != want {
			t.Fatalf("scope t%d: %d deliveries, want %d", i, n, want)
		}
	}
	if b.Published != 4 || b.Delivered != perScope*b.Published {
		t.Fatalf("published %d, delivered %d; want delivered = %d x published",
			b.Published, b.Delivered, perScope)
	}
}

func TestMessageFieldsPreserved(t *testing.T) {
	s := sim.New(1)
	b := NewBus(s)
	var got *Msg
	b.Subscribe(TopicCheckpoint, func(m *Msg) { got = m })
	b.Publish(&Msg{Topic: TopicCheckpoint, From: "n3", At: 5 * sim.Second, Epoch: 7, Data: "x"})
	s.Run()
	if got.From != "n3" || got.At != 5*sim.Second || got.Epoch != 7 || got.Data != "x" {
		t.Fatalf("msg mangled: %+v", got)
	}
}

func TestBarrier(t *testing.T) {
	fired := false
	b := NewBarrier(3, func() { fired = true })
	b.Arrive("a")
	b.Arrive("a") // duplicate
	b.Arrive("b")
	if fired || b.Done() {
		t.Fatal("premature fire")
	}
	if b.Arrived() != 2 {
		t.Fatalf("arrived = %d", b.Arrived())
	}
	b.Arrive("c")
	if !fired || !b.Done() {
		t.Fatal("barrier did not fire")
	}
	b.Arrive("d") // after done: no double-fire, no panic
}

func TestBarrierOfOne(t *testing.T) {
	fired := false
	b := NewBarrier(1, func() { fired = true })
	b.Arrive("solo")
	if !fired {
		t.Fatal("no fire")
	}
}

// TestChannelPublishScheduleDigest holds PublishOn to Publish: the same
// publishes sent through resolved channels and through per-publish
// lookups yield the same deliveries in the same order, and the same
// schedule digest. The run covers scoped and anonymous subscribers, a
// cancellation that compacts a bucket between publishes, and
// subscribers that join after their channel was resolved, including
// into buckets that did not exist yet.
func TestChannelPublishScheduleDigest(t *testing.T) {
	run := func(resolved bool) ([]string, uint64) {
		s := sim.New(3)
		b := NewBus(s)
		var log []string
		sub := func(topic, scope, name string) func() {
			return b.SubscribeScoped(topic, scope, name, func(m *Msg) {
				log = append(log, fmt.Sprintf("%d %s %s/%s e%d", s.Now(), name, m.Topic, m.Scope, m.Epoch))
			})
		}
		var cx, cr, cAll Channel
		if resolved {
			// Resolved before anyone subscribes to TopicResume.
			cr = b.Channel(TopicResume, "x")
		}
		cancelA := sub(TopicCheckpoint, "x", "a")
		cancelB := sub(TopicCheckpoint, "x", "b")
		sub(TopicCheckpoint, "x", "c")
		sub(TopicCheckpoint, "", "any")
		sub(TopicCheckpoint, "y", "other")
		if resolved {
			cx = b.Channel(TopicCheckpoint, "x")
			cAll = b.Channel(TopicCheckpoint, "")
		}
		publish := func(ch Channel, topic, scope string, epoch int) {
			m := &Msg{Topic: topic, Scope: scope, Epoch: epoch}
			if resolved {
				b.PublishOn(ch, m)
			} else {
				b.Publish(m)
			}
		}
		for e := 1; e <= 6; e++ {
			publish(cx, TopicCheckpoint, "x", e)
			publish(cr, TopicResume, "x", e)
			if e%2 == 0 {
				publish(cAll, TopicCheckpoint, "", e)
			}
			switch e {
			case 2:
				cancelA() // in flight: e2's delivery to a still lands
				cancelB() // two of three gone: the bucket compacts
			case 3:
				sub(TopicCheckpoint, "x", "late")
				sub(TopicResume, "x", "late-resume")
				sub(TopicResume, "", "late-any")
			}
			s.RunFor(5 * sim.Millisecond)
		}
		return log, s.ScheduleDigest()
	}
	viaChannel, digestChannel := run(true)
	viaPublish, digestPublish := run(false)
	joined := strings.Join(viaChannel, "\n")
	if joined != strings.Join(viaPublish, "\n") {
		t.Fatalf("deliveries differ:\nchannel:\n%s\npublish:\n%s", joined, strings.Join(viaPublish, "\n"))
	}
	if digestChannel != digestPublish {
		t.Fatalf("schedule digest %x via channels, %x via Publish", digestChannel, digestPublish)
	}
	for _, want := range []string{" a checkpoint/x e2", " late checkpoint/x e4", " late-resume resume/x e4", " late-any resume/x e4", " any checkpoint/ e6"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("no %q delivery in:\n%s", want, joined)
		}
	}
	for _, never := range []string{" a checkpoint/x e3", " b checkpoint/x e3", " other "} {
		if strings.Contains(joined, never) {
			t.Fatalf("unexpected %q delivery in:\n%s", never, joined)
		}
	}
}
