package swap

import (
	"testing"

	"emucheck/internal/sim"
	"emucheck/internal/storage"
)

// TestCloneAwareRestoreMovesOnlyMissingSegments: in Branch mode a
// swap-in consults the node's resident-segment set — chain segments the
// node already holds (its own prior cycles, or a fan-out's multicast
// staging) move zero bytes, and wiping the set (hardware reuse) falls
// back to the full replay.
func TestCloneAwareRestoreMovesOnlyMissingSegments(t *testing.T) {
	r := newRig(21)
	r.s.RunFor(sim.Second)
	o := Options{Mode: Branch}

	r.dirty(32 << 20)
	r.cycle(t, o)
	r.dirty(8 << 20)
	_, in2 := r.cycle(t, o)

	// Every committed segment was on this very node at swap-out time, so
	// the restore stages no disk bytes (memory still moves in full).
	if in2.DeltaBytes != 0 {
		t.Fatalf("clone-aware restore staged %d disk bytes for fully resident chain", in2.DeltaBytes)
	}
	if in2.MemoryBytes <= 0 {
		t.Fatal("restore moved no memory image")
	}

	// Hardware reuse wipes the node's cache: the next restore must move
	// the whole replay chain again.
	var outs []*OutReport
	if err := r.m.SwapOut(o, func(x []*OutReport, _ error) { outs = x }); err != nil {
		t.Fatal(err)
	}
	r.s.RunFor(15 * sim.Minute)
	if outs == nil {
		t.Fatal("swap-out incomplete")
	}
	lin := r.m.Lineage("n0")
	r.m.Nodes[0].Resident = nil
	var ins []*InReport
	if err := r.m.SwapIn(o, func(x []*InReport, _ error) { ins = x }); err != nil {
		t.Fatal(err)
	}
	r.s.RunFor(15 * sim.Minute)
	if ins == nil {
		t.Fatal("swap-in incomplete")
	}
	if ins[0].DeltaBytes != lin.ReplayBytes() {
		t.Fatalf("cold restore staged %d bytes, want the full replay %d", ins[0].DeltaBytes, lin.ReplayBytes())
	}
}

// TestPlainIncrementalIgnoresResidency: in Incremental mode the restore
// must keep moving the full base + chain replay even when the node
// holds every segment — the pre-branch pipeline is unchanged.
func TestPlainIncrementalIgnoresResidency(t *testing.T) {
	r := newRig(22)
	r.s.RunFor(sim.Second)
	o := Options{Mode: Incremental}
	r.dirty(16 << 20)
	r.cycle(t, o)
	r.m.Nodes[0].MarkResident(r.m.Lineage("n0"))
	r.dirty(4 << 20)
	_, in := r.cycle(t, o)
	if in.DeltaBytes != r.m.Lineage("n0").ReplayBytes() {
		t.Fatalf("plain incremental staged %d bytes, want full replay %d",
			in.DeltaBytes, r.m.Lineage("n0").ReplayBytes())
	}
}

// TestAdoptedForkSharesPrefix: a branch manager adopting a forked
// lineage restores only what the fan-out staging did not already mark
// resident — the shared prefix moves nothing, divergence moves in full.
func TestAdoptedForkSharesPrefix(t *testing.T) {
	cs := storage.NewChainStore()
	parent := newRig(23)
	parent.m.Chains = cs
	parent.s.RunFor(sim.Second)
	o := Options{Mode: Branch}
	parent.dirty(24 << 20)
	parent.cycle(t, o)
	parent.dirty(6 << 20)
	parent.cycle(t, o)
	plin := parent.m.Lineage("n0")

	// Branch: fork the chain, adopt it on a fresh rig, and stage the
	// shared prefix the way Cluster.Branch's multicast does.
	br := newRig(24)
	br.m.Chains = cs
	fork := plin.Fork()
	br.m.AdoptLineage("n0", fork)
	br.m.Nodes[0].MarkResident(fork)
	if fork.SharedBytes() != fork.ReplayBytes() {
		t.Fatalf("fork shares %d of %d bytes, want all", fork.SharedBytes(), fork.ReplayBytes())
	}

	// The branch diverges and swap-cycles: its first swap-out is a full
	// memory save, but the disk restore stages only... nothing beyond
	// what its own swap-out just committed (which is resident), because
	// the inherited prefix was staged by the fan-out.
	br.s.RunFor(sim.Second)
	br.dirty(4 << 20)
	_, in := br.cycle(t, o)
	if in.DeltaBytes != 0 {
		t.Fatalf("branch restore staged %d bytes despite resident prefix + own commit", in.DeltaBytes)
	}

	// Cold branch restore (reused hardware): stages the full fork replay
	// including the shared prefix — but the prefix bytes are still
	// shared server-side (stored once for both chains).
	if cs.StoredBytes() >= plin.ReplayBytes()+fork.ReplayBytes() {
		t.Fatalf("store holds %d bytes — fork duplicated the prefix (parent %d + fork %d)",
			cs.StoredBytes(), plin.ReplayBytes(), fork.ReplayBytes())
	}
}
