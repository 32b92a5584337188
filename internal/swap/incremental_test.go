package swap

import (
	"testing"

	"emucheck/internal/metrics"
	"emucheck/internal/sim"
)

// cycle runs one full swap-out/swap-in round trip on the rig.
func (r *rig) cycle(t *testing.T, o Options) (*OutReport, *InReport) {
	t.Helper()
	var outs []*OutReport
	if err := r.m.SwapOut(o, func(x []*OutReport, _ error) { outs = x }); err != nil {
		t.Fatal(err)
	}
	r.s.RunFor(15 * sim.Minute)
	if outs == nil {
		t.Fatal("swap-out incomplete")
	}
	var ins []*InReport
	if err := r.m.SwapIn(o, func(x []*InReport, _ error) { ins = x }); err != nil {
		t.Fatal(err)
	}
	r.s.RunFor(15 * sim.Minute)
	if ins == nil {
		t.Fatal("swap-in incomplete")
	}
	return outs[0], ins[0]
}

// TestIncrementalSwapMovesDeltaOnly: after the first (full) cycle, an
// incremental swap-out's memory upload must track the dirtied working
// set, not the full resident image, and each disk epoch must land in
// the lineage chain.
func TestIncrementalSwapMovesDeltaOnly(t *testing.T) {
	r := newRig(3)
	r.s.RunFor(sim.Second)
	r.dirty(32 << 20)

	o := Options{Mode: Incremental}
	out1, _ := r.cycle(t, o)
	if !out1.Incremental {
		t.Fatal("report not marked incremental")
	}
	full := out1.MemoryBytes // first cycle: no base on the server yet

	r.dirty(8 << 20)
	out2, in2 := r.cycle(t, o)
	if out2.MemoryBytes >= full/2 {
		t.Fatalf("second swap-out moved %d memory bytes, full image is %d — delta not incremental",
			out2.MemoryBytes, full)
	}
	if out2.ChainDepth < 1 {
		t.Fatal("lineage chain empty after incremental commit")
	}
	// Swap-in still restores the full resident image (server merges the
	// deltas offline).
	if in2.MemoryBytes < full/2 {
		t.Fatalf("swap-in restored only %d memory bytes", in2.MemoryBytes)
	}
	if !in2.Incremental || in2.DeltaBytes <= 0 {
		t.Fatalf("swap-in report: %+v", in2)
	}
}

// TestIncrementalCheaperThanFull: across identical multi-cycle dirty
// workloads, the incremental pipeline must move strictly fewer server
// bytes than the full-copy baseline.
func TestIncrementalCheaperThanFull(t *testing.T) {
	run := func(o Options) uint64 {
		r := newRig(7)
		r.s.RunFor(sim.Second)
		for c := 0; c < 3; c++ {
			r.dirty(16 << 20)
			r.cycle(t, o)
		}
		return r.m.Server.Received + r.m.Server.Served
	}
	full := run(Options{})
	incr := run(Options{Mode: Incremental})
	if incr >= full {
		t.Fatalf("incremental moved %d bytes, full-copy %d — no savings", incr, full)
	}
}

// TestLineageChainBounded: many incremental cycles must not grow the
// swap-in replay without bound; pruning folds old epochs into the base.
func TestLineageChainBounded(t *testing.T) {
	r := newRig(11)
	r.m.Lineage("n0").MaxDepth = 3
	r.m.Stats = metrics.NewCounters()
	r.s.RunFor(sim.Second)
	o := Options{Mode: Incremental}
	for c := 0; c < 8; c++ {
		r.dirty(4 << 20)
		r.cycle(t, o)
	}
	lin := r.m.Lineage("n0")
	if lin.Depth() > 3 {
		t.Fatalf("chain depth %d exceeds bound 3", lin.Depth())
	}
	if lin.Epochs() != 8 {
		t.Fatalf("committed %d epochs, want 8", lin.Epochs())
	}
	if lin.MergedBytes == 0 {
		t.Fatal("pruning never merged anything")
	}
	if r.m.Stats.Get("out.delta_bytes") == 0 || r.m.Stats.Get("in.mem_bytes") == 0 {
		t.Fatalf("stats not accumulated: %v", r.m.Stats.Names())
	}
}
