// Package node models the physical machines of the testbed: a CPU whose
// capacity is shared between the guest domain and privileged-domain
// (dom0) activity, and disks with a seek/rotation/transfer service model.
//
// The CPU model is what makes the paper's Figure 5 reproducible: even
// trivial dom0 operations (an `ls`, a checksum, an `xm list`) measurably
// perturb a CPU-bound guest job, and the background phases of a live
// checkpoint perturb it by up to ~27 ms. Interference is expressed as
// piecewise-constant availability: dom0 work claims a share of the CPU
// over an interval, and guest work progresses at the residual rate.
package node

import (
	"slices"
	"sort"

	"emucheck/internal/sim"
)

// stealInterval is a half-open interval [From, To) during which dom0
// work consumes Share (0..1] of the CPU.
type stealInterval struct {
	From, To sim.Time
	Share    float64
}

// CPU models one hyperthreaded Xeon shared by the guest and dom0.
type CPU struct {
	s      *sim.Simulator
	steals []stealInterval // kept sorted by From

	// StolenTotal accumulates CPU time consumed by dom0, for tests.
	StolenTotal sim.Time
}

// NewCPU creates an unloaded CPU.
func NewCPU(s *sim.Simulator) *CPU { return &CPU{s: s} }

// Steal reserves share of the CPU for dom0 work during [from, from+dur).
// Shares from overlapping reservations add up and are capped at 1 (the
// guest is fully stalled).
func (c *CPU) Steal(from, dur sim.Time, share float64) {
	if dur <= 0 || share <= 0 {
		return
	}
	if share > 1 {
		share = 1
	}
	// After every interval starting no later, so equal starts keep
	// arrival order.
	i := sort.Search(len(c.steals), func(i int) bool { return c.steals[i].From > from })
	c.steals = slices.Insert(c.steals, i, stealInterval{From: from, To: from + dur, Share: share})
	c.StolenTotal += sim.Time(float64(dur) * share)
}

// gc drops intervals that ended before t.
func (c *CPU) gc(t sim.Time) {
	keep := c.steals[:0]
	for _, iv := range c.steals {
		if iv.To > t {
			keep = append(keep, iv)
		}
	}
	c.steals = keep
}

// availability reports the guest-visible CPU share at time t.
func (c *CPU) availability(t sim.Time) float64 {
	stolen := 0.0
	for _, iv := range c.steals {
		if iv.From <= t && t < iv.To {
			stolen += iv.Share
		}
	}
	if stolen >= 1 {
		return 0
	}
	return 1 - stolen
}

// nextBoundary reports the next interval edge strictly after t, or Never.
func (c *CPU) nextBoundary(t sim.Time) sim.Time {
	next := sim.Never
	for _, iv := range c.steals {
		if iv.From > t && iv.From < next {
			next = iv.From
		}
		if iv.To > t && iv.To < next {
			next = iv.To
		}
	}
	return next
}

// FinishTime computes when `work` nanoseconds of guest CPU work started
// at `start` will complete, given current and future dom0 reservations.
func (c *CPU) FinishTime(start, work sim.Time) sim.Time {
	c.gc(start)
	t := start
	remaining := float64(work)
	for remaining > 1e-9 {
		avail := c.availability(t)
		nb := c.nextBoundary(t)
		if nb == sim.Never {
			if avail <= 0 {
				// Fully stalled with no future boundary: cannot finish.
				// Treat as stalled until the reservation set changes;
				// callers re-plan via Progress/FinishTime on thaw.
				return sim.Never
			}
			return t + sim.Time(remaining/avail+0.5)
		}
		span := float64(nb - t)
		done := span * avail
		if done >= remaining {
			return t + sim.Time(remaining/avail+0.5)
		}
		remaining -= done
		t = nb
	}
	return t
}

// Progress reports how much guest work completed during [start, end).
func (c *CPU) Progress(start, end sim.Time) sim.Time {
	if end <= start {
		return 0
	}
	var done float64
	t := start
	for t < end {
		avail := c.availability(t)
		nb := c.nextBoundary(t)
		if nb > end {
			nb = end
		}
		done += float64(nb-t) * avail
		t = nb
	}
	return sim.Time(done + 0.5)
}

// PendingSteals reports the number of live reservations (for tests).
func (c *CPU) PendingSteals() int {
	c.gc(c.s.Now())
	return len(c.steals)
}
