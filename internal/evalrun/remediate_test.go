package evalrun

import (
	"encoding/json"
	"testing"
)

// TestRemediateAutoBeatsRestartQuick pins the benchmark's acceptance
// comparison: every unattended detection preset and the scripted
// oracle must strictly beat restart-from-scratch on both MTTR and lost
// work, and each preset must land within a handful of seconds of the
// oracle. The balanced preset detects within its hysteresis bound.
func TestRemediateAutoBeatsRestartQuick(t *testing.T) {
	r := Remediate(1)
	scripted, restart := r.Row("scripted"), r.Row("restart")
	if scripted == nil || restart == nil {
		t.Fatalf("missing modes in %+v", r.Rows)
	}
	for _, mode := range []string{"auto@fast", "auto@balanced", "auto@conservative", "scripted"} {
		row := r.Row(mode)
		if row == nil {
			t.Fatalf("missing %s row in %+v", mode, r.Rows)
		}
		if !row.Recovered || row.Remediations < 1 {
			t.Fatalf("%s did not remediate: %+v", mode, row)
		}
		if row.MTTRS >= restart.MTTRS {
			t.Fatalf("%s MTTR %.0fs does not beat restart %.0fs", mode, row.MTTRS, restart.MTTRS)
		}
		if row.LostWorkS >= restart.LostWorkS {
			t.Fatalf("%s lost work %.1fs does not beat restart %.1fs", mode, row.LostWorkS, restart.LostWorkS)
		}
		// The loop's only handicap vs the operator oracle is detection
		// latency — seconds, not the oracle's whole advantage.
		if row.MTTRS > scripted.MTTRS+10 {
			t.Fatalf("%s MTTR %.0fs far behind scripted %.0fs", mode, row.MTTRS, scripted.MTTRS)
		}
	}
	// Balanced preset: three consecutive 500ms probes plus sub-period
	// phase stagger.
	if d := r.Row("auto@balanced").DetectS; d <= 0 || d > 2.5 {
		t.Fatalf("detect latency %.2fs outside (0, 2.5s]", d)
	}
}

// TestRemediateDeterministicQuick: the whole benchmark — probe timing,
// backoff, restore transfers — is a pure function of the seed.
func TestRemediateDeterministicQuick(t *testing.T) {
	enc := func() string {
		b, err := json.Marshal(Remediate(3))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := enc(), enc(); a != b {
		t.Fatalf("same-seed remediate runs diverged:\n%s\n%s", a, b)
	}
}

// TestRemediateEpochPeriodSweep: the run sweeps the scripted oracle
// across 5/15/60 s epoch periods. Every period recovers and
// beats restart on lost work, and a longer period banks less often,
// so it strictly loses more work.
func TestRemediateEpochPeriodSweep(t *testing.T) {
	r := Remediate(1)
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
