package evalrun

import (
	"encoding/json"
	"testing"
)

// TestRemediateAutoBeatsRestartQuick pins the benchmark's acceptance
// comparison: the unattended loop must strictly beat restart-from-
// scratch on both MTTR and lost work, detect within the preset's
// hysteresis bound, and land within a handful of seconds of the
// scripted-recovery oracle.
func TestRemediateAutoBeatsRestartQuick(t *testing.T) {
	r := Remediate(1, true)
	auto, scripted, restart := r.Row("auto@balanced"), r.Row("scripted"), r.Row("restart")
	if auto == nil || scripted == nil || restart == nil {
		t.Fatalf("missing modes in %+v", r.Rows)
	}
	if !auto.Recovered || auto.Remediations < 1 {
		t.Fatalf("unattended mode did not remediate: %+v", auto)
	}
	// Balanced preset: three consecutive 500ms probes plus sub-period
	// phase stagger.
	if auto.DetectS <= 0 || auto.DetectS > 2.5 {
		t.Fatalf("detect latency %.2fs outside (0, 2.5s]", auto.DetectS)
	}
	if auto.MTTRS >= restart.MTTRS {
		t.Fatalf("unattended MTTR %.0fs does not beat restart %.0fs", auto.MTTRS, restart.MTTRS)
	}
	if auto.LostWorkS >= restart.LostWorkS {
		t.Fatalf("unattended lost work %.1fs does not beat restart %.1fs", auto.LostWorkS, restart.LostWorkS)
	}
	// The loop's only handicap vs the operator oracle is detection
	// latency — seconds, not the oracle's whole advantage.
	if auto.MTTRS > scripted.MTTRS+10 {
		t.Fatalf("unattended MTTR %.0fs far behind scripted %.0fs", auto.MTTRS, scripted.MTTRS)
	}
}

// TestRemediateDeterministicQuick: the whole benchmark — probe timing,
// backoff, restore transfers — is a pure function of the seed.
func TestRemediateDeterministicQuick(t *testing.T) {
	enc := func() string {
		b, err := json.Marshal(Remediate(3, true))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := enc(), enc(); a != b {
		t.Fatalf("same-seed remediate runs diverged:\n%s\n%s", a, b)
	}
}

// TestRemediateEpochPeriodSweep: the full run sweeps the scripted
// oracle across 5/15/60 s epoch periods. Every period recovers and
// beats restart on lost work, and a longer period banks less often,
// so it strictly loses more work.
func TestRemediateEpochPeriodSweep(t *testing.T) {
	r := Remediate(1, false)
	restart := r.Row("restart")
	if restart == nil {
		t.Fatalf("missing restart row in %+v", r.Rows)
	}
	var prev float64
	for _, mode := range []string{"scripted@5s", "scripted", "scripted@60s"} {
		row := r.Row(mode)
		if row == nil {
			t.Fatalf("missing %s row in %+v", mode, r.Rows)
		}
		if !row.Recovered || row.LostWorkS >= restart.LostWorkS {
			t.Fatalf("%s: %+v does not beat restart %+v", mode, row, restart)
		}
		if row.LostWorkS <= prev {
			t.Fatalf("%s lost %.1f s, not more than the shorter period's %.1f s", mode, row.LostWorkS, prev)
		}
		prev = row.LostWorkS
	}
}
