package swap

import (
	"testing"

	"emucheck/internal/core"
	"emucheck/internal/guest"
	"emucheck/internal/node"
	"emucheck/internal/notify"
	"emucheck/internal/ntpsim"
	"emucheck/internal/sim"
	"emucheck/internal/storage"
	"emucheck/internal/xen"
	"emucheck/internal/xfer"
)

// multiRig builds a two-node swappable experiment sharing one server.
func multiRig(seed int64) (*sim.Simulator, *Manager, []*guest.Kernel) {
	s := sim.New(seed)
	p := node.DefaultParams()
	bus := notify.NewBus(s)
	y := ntpsim.New(s, seed)
	server := xfer.NewServer(s, 0)
	var members []*core.Member
	var nodes []*Node
	var ks []*guest.Kernel
	for _, name := range []string{"m0", "m1"} {
		m := node.NewMachine(s, name, p)
		k := guest.New(m, p, guest.DefaultConfig())
		vol := storage.NewVolume(m.Disk, 6<<30, storage.Optimized)
		vol.Age()
		k.Backend = vol
		hv := xen.New(m, p, k)
		y.Start(name)
		members = append(members, &core.Member{Name: name, HV: hv})
		nodes = append(nodes, &Node{Name: name, HV: hv, Vol: vol, GoldenCached: true})
		ks = append(ks, k)
	}
	coord := core.NewCoordinator(s, bus, y, members, nil)
	return s, NewManager(s, server, coord, nodes), ks
}

func TestMultiNodeSwapCycle(t *testing.T) {
	s, m, ks := multiRig(1)
	s.RunFor(sim.Second)
	// Dirty both nodes' disks.
	for _, n := range m.Nodes {
		for w := int64(0); w < 32<<20; w += 4 << 20 {
			n.Vol.Write((1<<30)+w, 4<<20, nil)
		}
	}
	s.RunFor(sim.Minute)
	var out []*OutReport
	if err := m.SwapOut(Options{}, func(x []*OutReport, _ error) { out = x }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(20 * sim.Minute)
	if out == nil || len(out) != 2 {
		t.Fatalf("out reports: %v", out)
	}
	for _, k := range ks {
		if !k.Suspended() {
			t.Fatal("node escaped the swap-out")
		}
	}
	var in []*InReport
	if err := m.SwapIn(Options{}, func(x []*InReport, _ error) { in = x }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(30 * sim.Minute)
	if in == nil || len(in) != 2 {
		t.Fatal("swap-in incomplete")
	}
	for _, k := range ks {
		if k.Suspended() {
			t.Fatal("node not resumed")
		}
	}
	// The shared server pipe serialized transfers: both nodes' swap-in
	// reports end at the same resume instant (coordinated).
	if in[0].Finished != in[1].Finished {
		t.Fatalf("nodes resumed apart: %v vs %v", in[0].Finished, in[1].Finished)
	}
}

func TestSwapWithoutPreCopyMovesWholeDeltaFrozen(t *testing.T) {
	r := newRig(11)
	r.s.RunFor(sim.Second)
	r.dirty(64 << 20)
	o := Options{NoPreCopy: true}
	var reps []*OutReport
	if err := r.m.SwapOut(o, func(x []*OutReport, _ error) { reps = x }); err != nil {
		t.Fatal(err)
	}
	r.s.RunFor(20 * sim.Minute)
	if reps == nil {
		t.Fatal("incomplete")
	}
	if reps[0].PreCopyBytes != 0 {
		t.Fatalf("pre-copy ran despite being disabled: %d", reps[0].PreCopyBytes)
	}
	if reps[0].ResidualBytes < 60<<20 {
		t.Fatalf("residual %d; whole delta should move frozen", reps[0].ResidualBytes)
	}
}

func TestPreCopyShrinksFrozenTransfer(t *testing.T) {
	run := func(pre bool) int64 {
		r := newRig(12)
		r.s.RunFor(sim.Second)
		r.dirty(64 << 20)
		o := Options{NoPreCopy: !pre}
		var reps []*OutReport
		r.m.SwapOut(o, func(x []*OutReport, _ error) { reps = x })
		r.s.RunFor(20 * sim.Minute)
		if reps == nil {
			t.Fatal("incomplete")
		}
		return reps[0].ResidualBytes
	}
	with := run(true)
	without := run(false)
	if with >= without/4 {
		t.Fatalf("pre-copy ineffective: residual %d vs %d", with, without)
	}
}

func TestSwapReportsDurations(t *testing.T) {
	r := newRig(13)
	r.s.RunFor(sim.Second)
	r.dirty(16 << 20)
	var out []*OutReport
	r.m.SwapOut(Options{}, func(x []*OutReport, _ error) { out = x })
	r.s.RunFor(20 * sim.Minute)
	var in []*InReport
	r.m.SwapIn(Options{}, func(x []*InReport, _ error) { in = x })
	r.s.RunFor(20 * sim.Minute)
	if out[0].Duration() <= 0 || in[0].Duration() <= 0 {
		t.Fatal("non-positive durations")
	}
	if in[0].MemoryBytes != out[0].MemoryBytes {
		t.Fatalf("memory image mismatch: out %d, in %d", out[0].MemoryBytes, in[0].MemoryBytes)
	}
	if m := r.m; m.Cycle != 1 {
		t.Fatalf("cycle = %d", m.Cycle)
	}
}
