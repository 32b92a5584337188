package evalrun

import (
	"fmt"
	"math"

	"emucheck/internal/metrics"
)

// A Claim is one row the evaluation prints against the paper: the
// paper's text for it, the paper's number where it gives one, and the
// band the measurement must stay in. A band that excludes the paper's
// number is a known deviation and says why.
type Claim struct {
	Section string // figure or section, e.g. "Fig 6" or "§7.2"
	Metric  string // the printed row's label
	Paper   string // the paper column as printed
	// Format prints the measurement in the section's table; it is
	// empty where the section prints the row in its own text.
	Format string
	// Value is the paper's number in the row's unit (NaN where the
	// paper gives none). A range is its midpoint; a bound is the bound.
	Value float64
	// Lo and Hi bound the measurement, inclusive.
	Lo, Hi float64
	// Deviation says why the band excludes Value; it is empty exactly
	// when Value is NaN or inside the band.
	Deviation string
	// Measure reads the claim's measurement from an experiment result,
	// and reports false when r is not the result the claim reads.
	Measure func(r any) (float64, bool)
}

// Holds reports whether v is inside the band.
func (c Claim) Holds(v float64) bool { return v >= c.Lo && v <= c.Hi }

// claim builds a Claim that reads its measurement from an *R.
func claim[R any](section, metric, paper, format string, value, lo, hi float64, deviation string, measure func(*R) float64) Claim {
	return Claim{
		Section: section, Metric: metric, Paper: paper, Format: format,
		Value: value, Lo: lo, Hi: hi, Deviation: deviation,
		Measure: func(r any) (float64, bool) {
			x, ok := r.(*R)
			if !ok {
				return 0, false
			}
			return measure(x), true
		},
	}
}

// at returns xs[i], or NaN (outside every band) when it is missing:
// a checkpoint that never ran leaves no gap.
func at(xs []float64, i int) float64 {
	if i >= len(xs) {
		return math.NaN()
	}
	return xs[i]
}

// lastCycle returns the final swap cycle's row.
func lastCycle(r *SwapTableResult) SwapCycleRow { return r.Rows[len(r.Rows)-1] }

var none = math.NaN()

// Shared deviation rationales.
const (
	ntpFloor = "ntpsim's per-node error decays with τ = 2.8 s onto a 60–170 µs floor redrawn every 4 s, " +
		"so two-node skews reach that floor within seconds where the paper's NTP shrinks them step by step"
	swapCosts = "the swap model's cost constants run faster than the paper's testbed; not yet recalibrated"
)

// Ledger holds every printed paper row, in print order. The bands hold
// at seeds 1, 2 and 3 at the paper's workload sizes. Each sits around
// the measured spread with a few percent of room, uses the paper's
// bound where the paper states one, and stays inside any threshold an
// earlier check held the row to.
var Ledger = []Claim{
	claim("Fig 4", "iteration mean (ms)", "20.0", "%.3f", 20, 19.9, 20.1, "",
		func(r *Fig4Result) float64 { return r.MeanMs }),
	claim("Fig 4", "within 28us of 20ms", "97%", "%.1f%%", 97, 97, 100, "",
		func(r *Fig4Result) float64 { return r.FracWithin * 100 }),
	claim("Fig 4", "max checkpoint error (us)", "~80", "%.0f", 80, 85, 110,
		"the worst of 36 checkpoints per run reads 92–102 µs at seeds 1–3 against the paper's ~80 µs; the excess is not yet traced to one model term",
		func(r *Fig4Result) float64 { return r.CkptMaxErr.Micros() }),
	claim("Fig 4", "checkpoints", "every 5s", "%.0f", none, 34, 38, "",
		func(r *Fig4Result) float64 { return float64(r.Checkpoints) }),

	claim("Fig 5", "iteration mean (ms)", "~236.6", "%.1f", 236.6, 236, 242, "",
		func(r *Fig5Result) float64 { return r.MeanMs }),
	claim("Fig 5", "within 9ms of nominal", "90% (baseline)", "%.1f%%", 90, 82, 89,
		"85.7% of iterations land within 9 ms under 5 s checkpoints against the paper's 90% baseline; the extra spread is not yet traced to one model term",
		func(r *Fig5Result) float64 { return r.FracWithin9 * 100 }),
	claim("Fig 5", "max over nominal (ms)", "<=27", "%.1f", 27, 18, 27, "",
		func(r *Fig5Result) float64 { return r.MaxOverMs }),
	claim("Fig 5", "checkpoints", "every 5s", "%.0f", none, 40, 44, "",
		func(r *Fig5Result) float64 { return float64(r.Checkpoints) }),

	claim("Fig 6", "mean throughput (MB/s)", "~45-55", "%.1f", 50, 84, 93,
		"the guest's receive path charges a fixed 16 µs per packet and never idles, so throughput is that cost's bound; the paper's receiver idles between bursts, which the model has no mechanism for",
		func(r *Fig6Result) float64 { return r.MeanMBps }),
	claim("Fig 6", "median inter-pkt (us)", "18", "%.1f", 18, 14, 18, "",
		func(r *Fig6Result) float64 { return r.MedianGapUs }),
	claim("Fig 6", "ckpt gaps (us)", "5801", "%.0f", 5801, 5300, 6100, "",
		func(r *Fig6Result) float64 { return at(r.CkptGapsUs, 0) }),
	claim("Fig 6", "ckpt gaps (us)", "816", "%.0f", 816, 220, 300, ntpFloor,
		func(r *Fig6Result) float64 { return at(r.CkptGapsUs, 1) }),
	claim("Fig 6", "ckpt gaps (us)", "399", "%.0f", 399, 80, 115, ntpFloor,
		func(r *Fig6Result) float64 { return at(r.CkptGapsUs, 2) }),
	claim("Fig 6", "ckpt gaps (us)", "330", "%.0f", 330, 80, 115, ntpFloor,
		func(r *Fig6Result) float64 { return at(r.CkptGapsUs, 3) }),
	claim("Fig 6", "retransmissions", "0", "%.0f", 0, 0, 0, "",
		func(r *Fig6Result) float64 { return float64(r.Retransmits) }),
	claim("Fig 6", "timeouts", "0", "%.0f", 0, 0, 0, "",
		func(r *Fig6Result) float64 { return float64(r.Timeouts) }),
	claim("Fig 6", "dup data at receiver", "0", "%.0f", 0, 0, 0, "",
		func(r *Fig6Result) float64 { return float64(r.DupData) }),

	claim("Fig 7", "per-client mean before ckpts (MB/s)", "~1", "%.2f", 1, 0.95, 1.15, "",
		func(r *Fig7Result) float64 { return r.CenterBefore }),
	claim("Fig 7", "per-client mean during ckpts (MB/s)", "~1 (center line unchanged)", "%.2f", 1, 0.95, 1.15, "",
		func(r *Fig7Result) float64 { return r.CenterDuring }),
	claim("Fig 7", "per-client mean after ckpts (MB/s)", "~1", "%.2f", 1, 0.95, 1.15, "",
		func(r *Fig7Result) float64 { return r.CenterAfter }),
	claim("Fig 7", "checkpoints", "20 over 100s", "%.0f", 20, 20, 20, "",
		func(r *Fig7Result) float64 { return float64(r.Checkpoints) }),

	claim("Fig 8", "fresh-disk block-write overhead", "17%", "", 17, 13, 18, "",
		func(r *Fig8Result) float64 { return r.FreshWriteOverheadPct }),
	claim("Fig 8", "aged-disk block-write overhead", "~2%", "", 2, 0, 1,
		"an aged Branch volume writes 0.1% slower than Base; the storage aging model does not reproduce the paper's residual cost",
		func(r *Fig8Result) float64 { return r.AgedWriteOverheadPct }),
	claim("Fig 8", "Branch-Orig write slowdown vs Branch", "74%", "", 74, 76, 84,
		"Branch-Orig block writes run at 20% of Branch's against the paper's 26%; like the aged row, a calibration of the storage model not yet fixed",
		func(r *Fig8Result) float64 { return r.OrigWriteSlowdownPct }),

	claim("Fig 9", "eager overhead", "+9%", "", 9, 10, 13,
		"the eager pre-copy slows the copy by 11.5% against the paper's 9%; not yet traced to one model term",
		func(r *Fig9Result) float64 { return r.EagerOverheadPct }),
	claim("Fig 9", "lazy overhead", "+19%", "", 19, 15, 18,
		"the lazy copy-in slows the copy by 16% against the paper's 19%; not yet traced to one model term",
		func(r *Fig9Result) float64 { return r.LazyOverheadPct }),
	claim("Fig 9", "lazy throughput drop", "45%", "", 45, 40, 46, "",
		func(r *Fig9Result) float64 { return r.LazyThroughputDropPct }),

	claim("§7.2", "initial swap-in (cached golden)", "8s", "", 8, 7.5, 8.5, "",
		func(r *SwapTableResult) float64 { return r.InitialSwapIn.Seconds() }),
	claim("§7.2", "swap-out", "constant ~60s", "", 60, 44, 49, swapCosts,
		func(r *SwapTableResult) float64 { return lastCycle(r).SwapOut.Seconds() }),
	claim("§7.2", "lazy swap-in", "constant ~35s", "", 35, 25.5, 28.5, swapCosts,
		func(r *SwapTableResult) float64 { return lastCycle(r).SwapInLazy.Seconds() }),
	claim("§7.2", "eager swap-in", ">150s by cycle 4", "", 150, 130, 145, swapCosts,
		func(r *SwapTableResult) float64 { return lastCycle(r).SwapInEager.Seconds() }),
	claim("§7.2", "disk-loaded swap-out slowdown", "20%", "", 20, 13, 17, swapCosts,
		func(r *SwapTableResult) float64 { return r.DiskLoadedOutPct }),

	claim("§5.1", "without free-block elimination", "490", "%.0f", 490, 520, 580,
		"the raw delta holds 61 MB beyond the 490 MB of object files the make writes; not yet traced to one model term",
		func(r *FreeBlockResult) float64 { return float64(r.RawMB) }),
	claim("§5.1", "with free-block elimination", "36", "%.0f", 36, 30, 40, "",
		func(r *FreeBlockResult) float64 { return float64(r.LiveMB) }),

	claim("§4.3", "2-node skew @5s", "converging to ~2x200us", "%.0fus", 400, 300, 20000, "",
		func(r *SyncResult) float64 { return r.SkewAt[0].Micros() }),
	claim("§4.3", "2-node skew @10s", "converging to ~2x200us", "%.0fus", 400, 20, 4000, "",
		func(r *SyncResult) float64 { return r.SkewAt[1].Micros() }),
	claim("§4.3", "2-node skew @15s", "converging to ~2x200us", "%.0fus", 400, 100, 1000, "",
		func(r *SyncResult) float64 { return r.SkewAt[2].Micros() }),
	claim("§4.3", "2-node skew @20s", "converging to ~2x200us", "%.0fus", 400, 25, 300, ntpFloor,
		func(r *SyncResult) float64 { return r.SkewAt[3].Micros() }),
	claim("§4.3", "scheduled ckpt suspend skew", "~clock-sync bound", "%.0fus", none, 80, 110, "",
		func(r *SyncResult) float64 { return r.ScheduledSkew.Micros() }),
	claim("§4.3", "event-driven suspend skew", "notification jitter", "%.0fus", none, 200, 550, "",
		func(r *SyncResult) float64 { return r.EventSkew.Micros() }),

	claim("§7.1", "ls /", "5-7", "%.1f", 6, 5, 7, "",
		func(r *Dom0JobsResult) float64 { return r.ExtraMs["ls /"] }),
	claim("§7.1", "sum vmlinux", "13-17", "%.1f", 15, 13, 17, "",
		func(r *Dom0JobsResult) float64 { return r.ExtraMs["sum vmlinux"] }),
	claim("§7.1", "xm list", "130", "%.1f", 130, 125, 145, "",
		func(r *Dom0JobsResult) float64 { return r.ExtraMs["xm list"] }),
}

// claimTable prints section's ledger rows for result r as a table:
// each row's metric, paper column and measurement. Consecutive claims
// that share a metric (the Fig 6 checkpoint gaps) share one row.
func claimTable(r any, section string, header ...string) string {
	t := &metrics.Table{Header: header}
	for _, c := range Ledger {
		if c.Section != section {
			continue
		}
		v, _ := c.Measure(r)
		measured := fmt.Sprintf(c.Format, v)
		if n := len(t.Rows); n > 0 && t.Rows[n-1][0] == c.Metric {
			t.Rows[n-1][1] += " " + c.Paper
			t.Rows[n-1][2] += " " + measured
			continue
		}
		t.AddRow(c.Metric, c.Paper, measured)
	}
	return t.String()
}

// paper returns the paper column of a printed row.
func paper(section, metric string) string {
	for _, c := range Ledger {
		if c.Section == section && c.Metric == metric {
			return c.Paper
		}
	}
	panic("evalrun: no ledger row " + section + " / " + metric)
}
