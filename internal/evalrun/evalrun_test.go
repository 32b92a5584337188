// Per-experiment sanity tests for the evaluation harness at the paper's
// size. cmd/benchrunner's TestPaperFidelity holds every printed row to
// its ledger band; these keep each experiment's own gates next to its
// code, so a regression names the experiment in this package's run.
package evalrun

import (
	"strings"
	"testing"

	"emucheck/internal/sim"
)

func TestFig4Quick(t *testing.T) {
	r := Fig4(1) // panics unless all 6000 iterations finish
	if r.MeanMs < 19.9 || r.MeanMs > 20.1 {
		t.Fatalf("mean = %.3f ms", r.MeanMs)
	}
	if r.CkptMaxErr > 200*sim.Microsecond {
		t.Fatalf("worst error %v", r.CkptMaxErr)
	}
	if r.Checkpoints == 0 {
		t.Fatal("no checkpoints ran")
	}
	if !strings.Contains(r.Render(), "within 28us") {
		t.Fatal("render")
	}
}

func TestFig5Quick(t *testing.T) {
	r := Fig5(1)
	if r.MeanMs < 236 || r.MeanMs > 242 {
		t.Fatalf("mean = %.1f", r.MeanMs)
	}
	if r.MaxOverMs > 27 {
		t.Fatalf("interference %.1f ms above the paper bound", r.MaxOverMs)
	}
	if r.Render() == "" {
		t.Fatal("render")
	}
}

func TestFig6Quick(t *testing.T) {
	r := Fig6(1)
	if r.Retransmits != 0 || r.Timeouts != 0 || r.DupData != 0 {
		t.Fatalf("trace artifacts: %d/%d/%d", r.Retransmits, r.Timeouts, r.DupData)
	}
	if len(r.CkptGapsUs) == 0 {
		t.Fatal("no checkpoint gaps measured")
	}
	if r.MedianGapUs < 10 || r.MedianGapUs > 30 {
		t.Fatalf("median gap %.1f us", r.MedianGapUs)
	}
	if r.Render() == "" {
		t.Fatal("render")
	}
}

func TestFig8Quick(t *testing.T) {
	r := Fig8(1)
	if r.OrigWriteSlowdownPct < 50 {
		t.Fatalf("orig slowdown %.0f%%", r.OrigWriteSlowdownPct)
	}
	if r.FreshWriteOverheadPct < 5 || r.FreshWriteOverheadPct > 35 {
		t.Fatalf("fresh overhead %.0f%%", r.FreshWriteOverheadPct)
	}
	if r.AgedWriteOverheadPct > 5 {
		t.Fatalf("aged overhead %.0f%%", r.AgedWriteOverheadPct)
	}
	if !strings.Contains(r.Render(), "Block-Writes") {
		t.Fatal("render")
	}
}

func TestFig9Quick(t *testing.T) {
	r := Fig9(1)
	if r.LazyOverheadPct <= 0 || r.EagerOverheadPct <= 0 {
		t.Fatalf("no interference measured: eager %+.0f%% lazy %+.0f%%",
			r.EagerOverheadPct, r.LazyOverheadPct)
	}
	if r.LazyThroughputDropPct < 15 {
		t.Fatalf("lazy drop %.0f%%", r.LazyThroughputDropPct)
	}
	if r.Render() == "" {
		t.Fatal("render")
	}
}

func TestSyncTableQuick(t *testing.T) {
	r := SyncTable(1)
	if len(r.SkewAt) != 4 {
		t.Fatal("skew samples")
	}
	if r.SkewAt[0] <= r.SkewAt[2] {
		t.Fatalf("skew did not converge: %v", r.SkewAt)
	}
	if r.EventSkew <= r.ScheduledSkew {
		t.Fatal("scheduled mode not better")
	}
	if r.Render() == "" {
		t.Fatal("render")
	}
}

func TestDom0JobsQuick(t *testing.T) {
	r := Dom0Jobs(1)
	ls, sum, xm := r.ExtraMs["ls /"], r.ExtraMs["sum vmlinux"], r.ExtraMs["xm list"]
	if !(ls < sum && sum < xm) {
		t.Fatalf("ordering broken: %.1f %.1f %.1f", ls, sum, xm)
	}
	if xm < 100 || xm > 170 {
		t.Fatalf("xm list effect %.1f ms", xm)
	}
	if r.Render() == "" {
		t.Fatal("render")
	}
}

func TestFreeBlockQuick(t *testing.T) {
	r := FreeBlockTable(1)
	if r.LiveMB*4 > r.RawMB {
		t.Fatalf("elimination weak: %d -> %d MB", r.RawMB, r.LiveMB)
	}
	if r.LiveMB == 0 {
		t.Fatal("no residual delta: journal/metadata model missing")
	}
	if r.Render() == "" {
		t.Fatal("render")
	}
}
