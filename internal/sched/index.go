package sched

import (
	"container/heap"

	"emucheck/internal/sim"
)

// jobQueue is the admission queue as an intrusive doubly-linked list:
// push-back, pop-front, and removal of an arbitrary queued job are all
// O(1), against the O(n) slice splices the queue started as. FIFO
// order — the facility's fairness contract — is preserved exactly; the
// links live on the Job so no per-operation allocation happens either.
type jobQueue struct {
	head, tail *Job
	n          int
}

func (q *jobQueue) len() int    { return q.n }
func (q *jobQueue) front() *Job { return q.head }

func (q *jobQueue) pushBack(j *Job) {
	j.qprev, j.qnext = q.tail, nil
	if q.tail != nil {
		q.tail.qnext = j
	} else {
		q.head = j
	}
	q.tail = j
	j.inQueue = true
	q.n++
}

func (q *jobQueue) remove(j *Job) {
	if !j.inQueue {
		return
	}
	if j.qprev != nil {
		j.qprev.qnext = j.qnext
	} else {
		q.head = j.qnext
	}
	if j.qnext != nil {
		j.qnext.qprev = j.qprev
	} else {
		q.tail = j.qprev
	}
	j.qprev, j.qnext = nil, nil
	j.inQueue = false
	q.n--
}

// victimKey is one preemption candidate with its policy cost evaluated
// at decision time. The (k1, k2, admittedAt, idx) tuple is a strict
// total order reproducing the legacy stable insertion sort exactly:
//
//	FIFO:      (0,          0,        admittedAt, submit idx)
//	IdleFirst: (lastActive, parkCost, admittedAt, submit idx)
//	Priority:  (Priority,   0,        admittedAt, submit idx)
//
// The legacy scan collected candidates in submit order and
// stable-sorted them with a non-strict comparator whose final
// tie-break was admittedAt — so its effective order was exactly this
// tuple. Keying the heap on it makes victim selection independent of
// traversal order while staying byte-identical to the old decisions.
type victimKey struct {
	k1, k2 int64
	job    *Job
}

// victimHeap is a deterministic min-heap over preemption candidates.
// Building it is O(n) and popping the k victims a shortfall needs is
// O(k log n) — against the legacy O(n²) insertion sort (which also
// re-evaluated ParkCost hooks inside the comparator).
type victimHeap []victimKey

func (h victimHeap) Len() int { return len(h) }
func (h victimHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	if a.k2 != b.k2 {
		return a.k2 < b.k2
	}
	if a.job.admittedAt != b.job.admittedAt {
		return a.job.admittedAt < b.job.admittedAt
	}
	return a.job.idx < b.job.idx
}
func (h victimHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *victimHeap) Push(x any)   { *h = append(*h, x.(victimKey)) }

// Pop returns the job alone: a pointer goes into an interface without
// an allocation, a victimKey would not.
func (h *victimHeap) Pop() any {
	old := *h
	n := len(old)
	k := old[n-1]
	*h = old[:n-1]
	return k.job
}

// pop removes and returns the minimum-cost victim.
func (h *victimHeap) pop() *Job { return heap.Pop(h).(*Job) }

// key evaluates j's policy cost for the victim heap. ParkCost is
// consulted once per candidate per decision (IdleFirst only), not
// O(n²) times inside a sort comparator.
func (d *Scheduler) key(j *Job) victimKey {
	k := victimKey{job: j}
	switch d.Policy {
	case IdleFirst:
		k.k1 = int64(j.lastActive)
		k.k2 = j.parkCost()
	case Priority:
		k.k1 = int64(j.Priority)
	}
	return k
}

// trackRun indexes a job entering service as a preemption candidate.
// Only preemptible jobs with a Park hook ever enter the index, so
// victim selection walks exactly the set the legacy full-table scan
// filtered out of all submitted jobs.
func (d *Scheduler) trackRun(j *Job) {
	if !j.Preemptible || j.Hooks.Park == nil {
		return
	}
	j.runIdx = len(d.candidates)
	d.candidates = append(d.candidates, j)
}

// untrackRun drops a job leaving service from the candidate index
// (swap-with-last; selection order never depends on index order
// because the victim heap's key is a strict total order).
func (d *Scheduler) untrackRun(j *Job) {
	if j.runIdx < 0 {
		return
	}
	last := len(d.candidates) - 1
	moved := d.candidates[last]
	d.candidates[j.runIdx] = moved
	moved.runIdx = j.runIdx
	d.candidates[last] = nil
	d.candidates = d.candidates[:last]
	j.runIdx = -1
}

// victims builds the decision-time heap of preemptible running jobs
// eligible to be parked for candidate, in the scheduler's reused
// victimHeap. nextEligible reports when the next residency-protected
// job matures, sim.Never if none.
func (d *Scheduler) victims(candidate *Job) (nextEligible sim.Time) {
	now := d.S.Now()
	nextEligible = sim.Never
	h := d.victimHeap[:0]
	for _, j := range d.candidates {
		if d.Policy == Priority && j.Priority >= candidate.Priority {
			continue
		}
		// Residency counts actual service time: admission plumbing (node
		// setup, image fetch, swap-in) must not eat the protected window,
		// or oversubscribed pools thrash.
		if now-j.runningSince < d.MinResidency {
			if t := j.runningSince + d.MinResidency; t < nextEligible {
				nextEligible = t
			}
			continue
		}
		h = append(h, d.key(j))
	}
	d.victimHeap = h
	heap.Init(&d.victimHeap)
	return nextEligible
}

// selectVictims pops victims for candidate in policy order until they
// free shortfall nodes: O(k log n) against the legacy sorted-scan's
// O(n²). It reports false, waking the scheduler when the next victim
// matures if residency protection is the only obstacle, when the
// eligible jobs cannot cover the shortfall.
//
// The chosen slice is the scheduler's scratch, which the caller hands
// back to d.chosen once it has parked the victims. Selection finishes
// before any park, so the victim heap is free again by then; a park
// can re-enter kick and select again, and that nested selection finds
// d.chosen taken and makes its own.
func (d *Scheduler) selectVictims(candidate *Job, shortfall int) (chosen []*Job, ok bool) {
	nextEligible := d.victims(candidate)
	chosen, d.chosen = d.chosen[:0], nil
	freed := 0
	for freed < shortfall && d.victimHeap.Len() > 0 {
		v := d.victimHeap.pop()
		chosen = append(chosen, v)
		freed += v.Need
	}
	if freed < shortfall {
		if nextEligible < sim.Never {
			d.wakeAt(nextEligible)
		}
		return chosen, false
	}
	return chosen, true
}
