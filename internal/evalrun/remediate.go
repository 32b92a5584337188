package evalrun

import (
	"fmt"

	"emucheck"
	"emucheck/internal/emulab"
	"emucheck/internal/health"
	"emucheck/internal/metrics"
	"emucheck/internal/sim"
)

// RemediateRow is one crash-handling policy's outcome in the unattended
// health-loop benchmark.
type RemediateRow struct {
	// Mode is "auto@<policy>" (the autonomous loop under that detection
	// preset), "scripted" (an operator script issues the recovery 1s
	// after the crash — the oracle the loop races), "scripted@Ns" (the
	// same script at an N-second epoch period instead of the default
	// 15 s), or "restart" (re-run from scratch, the stateless baseline).
	Mode string `json:"mode"`
	// DetectS is crash -> failure flagged. Auto modes measure the probe
	// loop's hysteresis latency; scripted and restart get the script's
	// fixed one-second reaction.
	DetectS float64 `json:"detect_s"`
	// BackInServiceS is crash -> guests running again.
	BackInServiceS float64 `json:"back_in_service_s"`
	// MTTRS is crash -> the tenant's pre-crash progress restored — back
	// in service plus re-executing whatever the restore point had not
	// banked.
	MTTRS float64 `json:"mttr_s"`
	// LostWorkS is the work the restore point did not cover.
	LostWorkS float64 `json:"lost_work_s"`
	// MovedMB is the file-server traffic the mode generated (epoch
	// commits plus the recovery transfer).
	MovedMB float64 `json:"moved_mb"`
	// Remediations counts recovery initiations (the controller's for
	// auto modes, the script's single action otherwise); Recovered
	// reports pre-crash progress was reached within the horizon.
	Remediations int  `json:"remediations"`
	Recovered    bool `json:"recovered"`
}

// RemediateResult is the unattended-remediation benchmark: one
// epoch-protected two-node tenant fail-stopped mid-run, revived either
// by the autonomous health loop (detection by probes with hysteresis,
// cordon, re-admission from the last committed epoch) under each
// detection preset, by a scripted recovery (the operator oracle, also
// swept across epoch periods), or by restart-from-scratch. The
// acceptance comparison: every auto mode and the scripted oracle must
// strictly beat restart on both MTTR and lost work — unattended
// recovery may trade seconds of detection latency, never the banked
// work.
type RemediateResult struct {
	Pool     int     `json:"pool"`
	Nodes    int     `json:"nodes"`
	CrashAtS float64 `json:"crash_at_s"`
	HorizonS float64 `json:"horizon_s"`

	Rows []RemediateRow `json:"rows"`
}

// DefaultEpochPeriod is the committed-epoch period the acceptance
// comparison (auto and scripted vs restart) is made at.
const DefaultEpochPeriod = 15 * sim.Second

// runRemediateMode crashes the tenant at crashAt and lets the given
// mode bring it back. policy is a health preset name for auto modes,
// or "scripted" / "restart"; period is the committed-epoch period
// (ignored by restart, which keeps no epochs).
func runRemediateMode(seed int64, policy string, period, crashAt, horizon sim.Time) RemediateRow {
	const name = "t1"
	auto := policy != "scripted" && policy != "restart"
	restart := policy == "restart"
	c := emucheck.NewCluster(4, seed, emucheck.FIFO)
	c.Incremental = true
	c.SaveDeadline = 20 * sim.Second
	if auto {
		pol, err := health.ParsePolicy(policy)
		if err != nil {
			panic("remediate: " + err.Error())
		}
		if err := c.EnableHealth(emucheck.HealthOptions{Policy: pol}); err != nil {
			panic("remediate: " + err.Error())
		}
	}

	var ticks, committed, lastRec int64
	a, b := name+"a", name+"b"
	sc := emucheck.Scenario{
		Spec: emulab.Spec{
			Name:  name,
			Nodes: []emulab.NodeSpec{{Name: a, Swappable: true}, {Name: b, Swappable: true}},
			Links: []emulab.LinkSpec{{A: a, B: b}},
		},
		Setup: func(s *emucheck.Session) {
			// A restart reboots from the golden image: the previous
			// incarnation's progress is gone.
			ticks = 0
			if !restart {
				s.Exp.Swap.OnCommit = func() { committed = ticks }
				if err := s.StartEpochs(period); err != nil {
					panic("remediate: " + err.Error())
				}
			}
			k := s.Kernel(a)
			var step func()
			step = func() {
				k.Usleep(100*sim.Millisecond, func() {
					if recs := int64(s.Recoveries()); recs != lastRec {
						// Just restored: progress rolls back to the last
						// committed epoch's.
						lastRec = recs
						ticks = committed
					}
					ticks++
					s.Touch()
					step()
				})
			}
			step()
		},
	}
	if _, err := c.Submit(sc, 0); err != nil {
		panic("remediate: " + err.Error())
	}

	c.RunFor(crashAt)
	if err := c.Crash(name); err != nil {
		panic("remediate: " + err.Error())
	}
	preCrash := ticks
	if !auto {
		// The operator's script reacts one second after the crash.
		c.S.DoAfter(sim.Second, "remediate.scripted", func() {
			var err error
			if restart {
				err = c.Restart(name)
			} else {
				err = c.Recover(name)
			}
			if err != nil {
				panic("remediate: " + err.Error())
			}
		})
	}

	sess := c.Tenant(name)
	row := RemediateRow{Mode: policy}
	if auto {
		row.Mode = "auto@" + policy
	} else if !restart && period != DefaultEpochPeriod {
		row.Mode = fmt.Sprintf("scripted@%.0fs", period.Seconds())
	}
	var backAt, restoredAt sim.Time
	for c.Now() < horizon {
		c.RunFor(sim.Second)
		if backAt == 0 && sess.State() == "running" {
			backAt = c.Now()
		}
		if backAt != 0 && ticks >= preCrash {
			restoredAt = c.Now()
			break
		}
	}
	if auto {
		row.DetectS = sess.MaxDetectLatency().Seconds()
		row.Remediations = sess.Remediations()
	} else {
		row.DetectS = 1
		row.Remediations = 1
	}
	if backAt > 0 {
		row.BackInServiceS = (backAt - crashAt).Seconds()
	}
	if restoredAt > 0 {
		row.Recovered = true
		row.MTTRS = (restoredAt - crashAt).Seconds()
	} else {
		row.MTTRS = (horizon - crashAt).Seconds() // censored at the horizon
	}
	if restart {
		// Everything the first incarnation banked is owed again.
		row.LostWorkS = float64(preCrash) / 10
	} else {
		row.LostWorkS = sess.LostWork().Seconds()
	}
	row.MovedMB = float64(c.TB.Server.ByTag[name]) / (1 << 20)
	return row
}

// Remediate runs the benchmark: the autonomous loop under each
// detection preset against the scripted-recovery oracle (at 5/15/60 s
// epoch periods) and the restart-from-scratch baseline.
func Remediate(seed int64) *RemediateResult {
	const crashAt, horizon = 180 * sim.Second, 15 * sim.Minute
	presets := []string{"fast", "balanced", "conservative"}
	periods := []sim.Time{5 * sim.Second, DefaultEpochPeriod, 60 * sim.Second}
	r := &RemediateResult{
		Pool: 4, Nodes: 2,
		CrashAtS: crashAt.Seconds(), HorizonS: horizon.Seconds(),
	}
	for _, p := range presets {
		r.Rows = append(r.Rows, runRemediateMode(seed, p, DefaultEpochPeriod, crashAt, horizon))
	}
	for _, p := range periods {
		r.Rows = append(r.Rows, runRemediateMode(seed, "scripted", p, crashAt, horizon))
	}
	r.Rows = append(r.Rows, runRemediateMode(seed, "restart", 0, crashAt, horizon))
	return r
}

// Row returns the named mode's row (nil if absent).
func (r *RemediateResult) Row(mode string) *RemediateRow {
	for i := range r.Rows {
		if r.Rows[i].Mode == mode {
			return &r.Rows[i]
		}
	}
	return nil
}

// Render prints the comparison.
func (r *RemediateResult) Render() string {
	t := &metrics.Table{Header: []string{"mode", "detect (s)", "back in service (s)", "MTTR (s)", "lost work (s)", "moved MB", "recovered"}}
	for _, row := range r.Rows {
		t.AddRow(row.Mode, fmt.Sprintf("%.1f", row.DetectS), fmt.Sprintf("%.0f", row.BackInServiceS),
			fmt.Sprintf("%.0f", row.MTTRS), fmt.Sprintf("%.1f", row.LostWorkS),
			fmt.Sprintf("%.0f", row.MovedMB), row.Recovered)
	}
	s := fmt.Sprintf("%d-node tenant crashed at t=%.0fs; auto modes are unattended (probe detection + cordon + epoch re-admission)\n",
		r.Nodes, r.CrashAtS)
	return s + t.String()
}
