package sched

import (
	"errors"
	"fmt"
	"testing"

	"emucheck/internal/sim"
)

// abortingPool is a scheduler of n running preemptible jobs of one node
// each whose parks wait until the test aborts them: an aborted park
// leaves its job running, so the same decision can be made again.
type abortingPool struct {
	d                 *Scheduler
	pending, aborting []func(error)
}

func newAbortingPool(t *testing.T, n int) *abortingPool {
	t.Helper()
	s := sim.New(1)
	p := &abortingPool{d: New(s, n+3, IdleFirst)}
	p.d.MinResidency = 0
	for i := range n {
		cost := int64(i % 5)
		err := p.d.Submit(&Job{Name: fmt.Sprintf("v%d", i), Need: 1, Preemptible: true, Hooks: Hooks{
			Start:    func(done func(error)) { done(nil) },
			Park:     func(done func(error)) { p.pending = append(p.pending, done) },
			ParkCost: func() int64 { return cost },
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	return p
}

var errAbort = errors.New("park aborted")

// abort fails every pending park. Parks the aborts set off pend for
// the next call.
func (p *abortingPool) abort() {
	p.aborting, p.pending = p.pending, p.aborting[:0]
	for _, done := range p.aborting {
		done(errAbort)
	}
}

// TestVictimSelectionAllocs holds a preemption decision and a drain to
// no allocation once the scheduler's scratch has grown: the victim heap
// and the chosen list are reused, and a park's callback is bound once
// per job.
func TestVictimSelectionAllocs(t *testing.T) {
	t.Run("tryPreempt", func(t *testing.T) {
		p := newAbortingPool(t, 64)
		d := p.d
		// A queued job of four nodes against three free: the queue head
		// preempts one victim, whose aborted park lets it preempt again.
		if err := d.Submit(&Job{Name: "head", Need: 4, Hooks: Hooks{Start: func(func(error)) {}}}); err != nil {
			t.Fatal(err)
		}
		if len(p.pending) != 1 {
			t.Fatalf("%d parks pending, want 1", len(p.pending))
		}
		before := d.Preemptions
		allocs := testing.AllocsPerRun(100, p.abort)
		if d.Preemptions-before < 100 {
			t.Fatalf("%d preemptions over 101 decisions", d.Preemptions-before)
		}
		if allocs != 0 {
			t.Fatalf("%.2f allocations per preemption decision, want 0", allocs)
		}
	})
	t.Run("DrainFor", func(t *testing.T) {
		p := newAbortingPool(t, 64)
		d := p.d
		// A crashed three-node job whose hardware a fresh job took: the
		// drain for it must park three victims.
		start := Hooks{Start: func(done func(error)) { done(nil) }}
		if err := d.Submit(&Job{Name: "crashed", Need: 3, Hooks: start}); err != nil {
			t.Fatal(err)
		}
		if err := d.Fail("crashed"); err != nil {
			t.Fatal(err)
		}
		if err := d.Submit(&Job{Name: "taker", Need: 3, Hooks: start}); err != nil {
			t.Fatal(err)
		}
		drain := func() {
			if n, err := d.DrainFor("crashed"); err != nil || n != 3 {
				t.Fatalf("drained %d victims (%v), want 3", n, err)
			}
			p.abort()
		}
		drain()
		if allocs := testing.AllocsPerRun(100, drain); allocs != 0 {
			t.Fatalf("%.2f allocations per drain, want 0", allocs)
		}
	})
}
