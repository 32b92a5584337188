package evalrun

import (
	"fmt"

	"emucheck"
	"emucheck/internal/emulab"
	"emucheck/internal/metrics"
	"emucheck/internal/sim"
)

// TimeshareRow is one scheduling mode's outcome.
type TimeshareRow struct {
	Mode        string  `json:"mode"`
	Completed   int     `json:"completed"`
	UsefulTicks int64   `json:"useful_ticks"`
	LostTicks   int64   `json:"lost_ticks"`
	Utilization float64 `json:"utilization"`
	MeanWaitS   float64 `json:"mean_queue_wait_s"`
	Preemptions int     `json:"preemptions"`
	// AllDoneS is when the last tenant finished (0 = never within the
	// horizon).
	AllDoneS float64 `json:"all_done_s"`
	// MovedMB is the total file-server traffic (both directions) the
	// mode generated across every swap cycle.
	MovedMB float64 `json:"moved_mb"`
	// PreemptedMB is the scheduler's estimated transfer bill for its
	// involuntary parks — proportional to dirtied state under
	// incremental swapping, to full images under full-copy.
	PreemptedMB float64 `json:"preempted_mb"`
}

// timeshareMode selects the swap machinery under measurement.
type timeshareMode int

const (
	statefulIncr timeshareMode = iota // dirty-delta lineage pipeline
	statefulFull                      // full-copy stateful baseline
	stateless                         // classic Emulab swap-out (state lost)
)

func (m timeshareMode) String() string {
	switch m {
	case statefulIncr:
		return "stateful-incr"
	case statefulFull:
		return "stateful-full"
	default:
		return "stateless"
	}
}

// TimeshareResult is the multi-tenancy benchmark: an oversubscribed
// pool (three 2-node tenants over 4 nodes, each owing a fixed amount of
// work) scheduled three ways. Stateful tenants accumulate progress
// across preemptions and all finish; the incremental variant moves only
// dirty deltas per swap cycle, so it finishes sooner and moves strictly
// fewer bytes than full copies. Stateless tenants restart from scratch
// at every re-admission — under sustained contention, work shorter than
// one service window is the only work that ever completes (§2, §5).
type TimeshareResult struct {
	Pool        int     `json:"pool"`
	Tenants     int     `json:"tenants"`
	NodesEach   int     `json:"nodes_each"`
	TargetTicks int64   `json:"target_ticks"`
	HorizonS    float64 `json:"horizon_s"`

	StatefulIncr TimeshareRow `json:"stateful_incremental"`
	Stateful     TimeshareRow `json:"stateful"`
	Stateless    TimeshareRow `json:"stateless"`
}

// runTimeshareMode runs one scheduling mode to completion or the horizon.
func runTimeshareMode(seed int64, mode timeshareMode, target int64, horizon sim.Time) TimeshareRow {
	const pool, tenants = 4, 3
	c := emucheck.NewCluster(pool, seed, emucheck.FIFO)
	c.Stateless = mode == stateless
	c.Incremental = mode == statefulIncr
	c.Sched.MinResidency = 45 * sim.Second

	names := []string{"t1", "t2", "t3"}
	counts := make([]int64, tenants) // progress of the current admission
	lost := make([]int64, tenants)   // ticks discarded by stateless restarts
	done := make([]bool, tenants)
	for i, name := range names {
		i, name := i, name
		a, b := name+"a", name+"b"
		sc := emucheck.Scenario{
			Spec: emulab.Spec{
				Name:  name,
				Nodes: []emulab.NodeSpec{{Name: a, Swappable: true}, {Name: b, Swappable: true}},
				Links: []emulab.LinkSpec{{A: a, B: b}},
			},
			Setup: func(s *emucheck.Session) {
				// A stateless re-admission reboots from the golden image:
				// whatever the previous incarnation computed is gone.
				lost[i] += counts[i]
				counts[i] = 0
				k := s.Kernel(a)
				var step func()
				step = func() {
					k.Usleep(100*sim.Millisecond, func() {
						counts[i]++
						s.Touch()
						if counts[i] >= target {
							if err := c.Finish(name); err == nil {
								done[i] = true
								return
							}
						}
						step()
					})
				}
				step()
			},
		}
		if _, err := c.Submit(sc, 0); err != nil {
			panic("timeshare: " + err.Error())
		}
	}

	var allDoneAt sim.Time
	for c.Now() < horizon {
		c.RunFor(5 * sim.Second)
		if c.Sched.AllDone() {
			allDoneAt = c.Now()
			break
		}
	}

	row := TimeshareRow{
		Mode:        mode.String(),
		Utilization: c.Utilization(),
		MeanWaitS:   c.Sched.MeanQueueWait().Seconds(),
		Preemptions: c.Sched.Preemptions,
		AllDoneS:    allDoneAt.Seconds(),
		MovedMB:     float64(c.TB.Server.Received+c.TB.Server.Served) / (1 << 20),
		PreemptedMB: float64(c.Sched.PreemptedBytes) / (1 << 20),
	}
	for i := range names {
		if done[i] {
			row.Completed++
			row.UsefulTicks += target
		}
		row.LostTicks += lost[i]
	}
	return row
}

// Timeshare runs the benchmark. Each tenant owes 900 ticks of 100 ms:
// 90 s of computation, twice the service window, so stateless restarts
// can never bank it and every tenant is parked more than once (a first
// swap-out is always a full save, so one park per tenant would make the
// two stateful modes indistinguishable).
func Timeshare(seed int64) *TimeshareResult {
	const target = 900
	horizon := 30 * sim.Minute
	return &TimeshareResult{
		Pool: 4, Tenants: 3, NodesEach: 2,
		TargetTicks:  target,
		HorizonS:     horizon.Seconds(),
		StatefulIncr: runTimeshareMode(seed, statefulIncr, target, horizon),
		Stateful:     runTimeshareMode(seed, statefulFull, target, horizon),
		Stateless:    runTimeshareMode(seed, stateless, target, horizon),
	}
}

// Render prints the comparison.
func (r *TimeshareResult) Render() string {
	t := &metrics.Table{Header: []string{"mode", "completed", "useful ticks", "lost ticks", "util %", "mean wait (s)", "preemptions", "moved MB", "preempted MB", "all done (s)"}}
	for _, row := range []TimeshareRow{r.StatefulIncr, r.Stateful, r.Stateless} {
		doneAt := "never"
		if row.AllDoneS > 0 {
			doneAt = fmt.Sprintf("%.0f", row.AllDoneS)
		}
		t.AddRow(row.Mode, fmt.Sprintf("%d/%d", row.Completed, r.Tenants), row.UsefulTicks, row.LostTicks,
			fmt.Sprintf("%.0f", row.Utilization*100), fmt.Sprintf("%.1f", row.MeanWaitS), row.Preemptions,
			fmt.Sprintf("%.0f", row.MovedMB), fmt.Sprintf("%.0f", row.PreemptedMB), doneAt)
	}
	s := fmt.Sprintf("%d tenants x %d nodes over a %d-node pool; each owes %d ticks (%.0f s of work)\n",
		r.Tenants, r.NodesEach, r.Pool, r.TargetTicks, float64(r.TargetTicks)/10)
	return s + t.String()
}
