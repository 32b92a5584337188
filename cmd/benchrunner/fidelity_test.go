package main

import (
	"math"
	"testing"

	"emucheck/internal/evalrun"
)

// result returns the seed-1 result of the experiment under key.
func result[R any](t *testing.T, key string) R {
	t.Helper()
	for _, r := range seed1() {
		if r.key == key {
			return r.result.(R)
		}
	}
	t.Fatalf("no experiment %q", key)
	var zero R
	return zero
}

// TestPaperFidelity holds every printed paper row to its ledger band at
// seed 1, and every claim that relates two measurements. A row whose
// band excludes the paper's number must say why, and only such a row
// may.
func TestPaperFidelity(t *testing.T) {
	for _, c := range evalrun.Ledger {
		row := c.Section + " " + c.Metric
		excludes := !math.IsNaN(c.Value) && !c.Holds(c.Value)
		if excludes && c.Deviation == "" {
			t.Errorf("%s: band [%g, %g] excludes the paper's %g but gives no deviation", row, c.Lo, c.Hi, c.Value)
		}
		if !excludes && c.Deviation != "" {
			t.Errorf("%s: band [%g, %g] holds the paper's %g but gives a deviation", row, c.Lo, c.Hi, c.Value)
		}
		var v float64
		found := false
		for _, r := range seed1() {
			if x, ok := c.Measure(r.result); ok {
				v, found = x, true
				break
			}
		}
		if !found {
			t.Errorf("%s: no experiment result carries this row", row)
		} else if !c.Holds(v) {
			t.Errorf("%s: measured %g, outside its band [%g, %g] (paper %s)", row, v, c.Lo, c.Hi, c.Paper)
		}
	}

	check := func(claim string, ok bool, format string, args ...any) {
		t.Helper()
		if !ok {
			t.Errorf("%s: "+format, append([]any{claim}, args...)...)
		}
	}

	f7 := result[*evalrun.Fig7Result](t, "fig7")
	check("Fig 7 center line unchanged during checkpoints",
		math.Abs(f7.CenterDuring-f7.CenterBefore) <= 0.15*f7.CenterBefore,
		"%.3f MB/s before, %.3f during", f7.CenterBefore, f7.CenterDuring)

	f9 := result[*evalrun.Fig9Result](t, "fig9")
	check("Fig 9 lazy copy-in costs more than eager pre-copy", f9.LazyOverheadPct >= f9.EagerOverheadPct,
		"lazy %+.1f%%, eager %+.1f%%", f9.LazyOverheadPct, f9.EagerOverheadPct)

	sw := result[*evalrun.SwapTableResult](t, "swap")
	first, last := sw.Rows[0], sw.Rows[len(sw.Rows)-1]
	check("§7.2 eager swap-in at least twice lazy by the last cycle", last.SwapInEager >= 2*last.SwapInLazy,
		"eager %.1f s, lazy %.1f s", last.SwapInEager.Seconds(), last.SwapInLazy.Seconds())
	for _, row := range sw.Rows {
		check("§7.2 swap-out constant across cycles", math.Abs(float64(row.SwapOut-first.SwapOut)) <= 0.05*float64(first.SwapOut),
			"cycle %d %.1f s, cycle 1 %.1f s", row.Cycle, row.SwapOut.Seconds(), first.SwapOut.Seconds())
		check("§7.2 lazy swap-in constant across cycles", math.Abs(float64(row.SwapInLazy-first.SwapInLazy)) <= 0.05*float64(first.SwapInLazy),
			"cycle %d %.1f s, cycle 1 %.1f s", row.Cycle, row.SwapInLazy.Seconds(), first.SwapInLazy.Seconds())
	}

	fb := result[*evalrun.FreeBlockResult](t, "freeblock")
	check("§5.1 elimination shrinks the delta at least 4x", fb.LiveMB*4 <= fb.RawMB,
		"%d MB -> %d MB", fb.RawMB, fb.LiveMB)

	sy := result[*evalrun.SyncResult](t, "sync")
	check("§4.3 two-node skew converges", sy.SkewAt[0] > sy.SkewAt[2],
		"@5s %v, @15s %v", sy.SkewAt[0], sy.SkewAt[2])
	check("§4.3 scheduled checkpoints beat event-driven ones", sy.EventSkew > sy.ScheduledSkew,
		"event-driven %v, scheduled %v", sy.EventSkew, sy.ScheduledSkew)

	d0 := result[*evalrun.Dom0JobsResult](t, "dom0")
	ls, sum, xm := d0.ExtraMs["ls /"], d0.ExtraMs["sum vmlinux"], d0.ExtraMs["xm list"]
	check("§7.1 heavier dom0 commands interfere more", ls < sum && sum < xm,
		"ls %.1f, sum %.1f, xm list %.1f ms", ls, sum, xm)

	ab := result[*evalrun.AblationResult](t, "ablation")
	check("§4.4 ablating delay-node capture grows endpoint logs", ab.EndpointLogWithout > ab.EndpointLogWith,
		"without %d pkts, with %d", ab.EndpointLogWithout, ab.EndpointLogWith)

	st := result[*evalrun.StorageResult](t, "storage")
	check("storage: both modes finish every park/resume cycle",
		st.Cached.Restores == st.Cycles && st.Uncached.Restores == st.Cycles,
		"cached %d, uncached %d of %d", st.Cached.Restores, st.Uncached.Restores, st.Cycles)
	check("storage: the delta cache moves fewer remote bytes", st.Cached.RemoteMB < st.Uncached.RemoteMB,
		"cached %.0f MB, uncached %.0f MB", st.Cached.RemoteMB, st.Uncached.RemoteMB)
	check("storage: the delta cache restores sooner", st.Cached.MeanRestoreS < st.Uncached.MeanRestoreS,
		"cached %.1f s, uncached %.1f s", st.Cached.MeanRestoreS, st.Uncached.MeanRestoreS)
}
