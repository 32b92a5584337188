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

type rig struct {
	s           *sim.Simulator
	k           *guest.Kernel
	hv          *xen.Hypervisor
	vol         *storage.Volume
	m           *Manager
	dirtyCursor int64
}

func newRig(seed int64) *rig {
	s := sim.New(seed)
	p := node.DefaultParams()
	mach := node.NewMachine(s, "n0", p)
	k := guest.New(mach, p, guest.DefaultConfig())
	vol := storage.NewVolume(mach.Disk, 6<<30, storage.Optimized)
	vol.Age()
	k.Backend = vol
	hv := xen.New(mach, p, k)
	bus := notify.NewBus(s)
	y := ntpsim.New(s, seed)
	y.Start("n0")
	coord := core.NewCoordinator(s, bus, y, []*core.Member{{Name: "n0", HV: hv}}, nil)
	server := xfer.NewServer(s, 0)
	sn := &Node{Name: "n0", HV: hv, Vol: vol, GoldenCached: true}
	m := NewManager(s, server, coord, []*Node{sn})
	return &rig{s: s, k: k, hv: hv, vol: vol, m: m}
}

// dirty writes n bytes of new data through the guest's volume, starting
// at a fresh region each call (sessions generate new data, §7.2).
func (r *rig) dirty(n int64) {
	off := r.dirtyCursor + 1<<30
	r.dirtyCursor += n
	for w := int64(0); w < n; w += 4 << 20 {
		r.vol.Write(off+w, 4<<20, nil)
	}
	r.s.RunFor(30 * sim.Second)
}

func TestSwapOutPreservesStateAndReleases(t *testing.T) {
	r := newRig(1)
	r.s.RunFor(sim.Second)
	r.dirty(64 << 20)
	var reps []*OutReport
	if err := r.m.SwapOut(Options{}, func(x []*OutReport, _ error) { reps = x }); err != nil {
		t.Fatal(err)
	}
	r.s.RunFor(10 * sim.Minute)
	if reps == nil {
		t.Fatal("swap-out incomplete")
	}
	if !r.m.SwappedOut() || !r.k.Suspended() {
		t.Fatal("experiment not frozen after swap-out")
	}
	rep := reps[0]
	if rep.PreCopyBytes < 60<<20 {
		t.Fatalf("pre-copy moved %d", rep.PreCopyBytes)
	}
	if rep.MemoryBytes <= 0 || rep.MergedBytes <= 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Duration() <= 0 {
		t.Fatal("zero duration")
	}
}

func TestSwapCycleConcealsDowntime(t *testing.T) {
	r := newRig(2)
	r.s.RunFor(sim.Second)
	r.dirty(32 << 20)
	v0 := r.k.Monotonic()
	realBefore := r.s.Now()
	var outDone, inDone bool
	r.m.SwapOut(Options{}, func([]*OutReport, error) { outDone = true })
	r.s.RunFor(5 * sim.Minute)
	if !outDone {
		t.Fatal("swap-out incomplete")
	}
	// Stay swapped out for an hour of real time.
	r.s.RunFor(sim.Hour)
	r.m.SwapIn(Options{}, func([]*InReport, error) { inDone = true })
	r.s.RunFor(5 * sim.Minute)
	if !inDone {
		t.Fatal("swap-in incomplete")
	}
	if r.k.Suspended() {
		t.Fatal("guest not resumed")
	}
	virtElapsed := r.k.Monotonic() - v0
	realElapsed := r.s.Now() - realBefore
	// Virtual time must exclude essentially the whole swapped-out hour.
	if virtElapsed > realElapsed/10 {
		t.Fatalf("swap leaked into virtual time: %v of %v", virtElapsed, realElapsed)
	}
}

func TestLazySwapInFasterThanEager(t *testing.T) {
	inTime := func(lazy bool) sim.Time {
		r := newRig(3)
		r.s.RunFor(sim.Second)
		r.dirty(256 << 20)
		o := Options{}
		r.m.SwapOut(o, func([]*OutReport, error) {})
		r.s.RunFor(10 * sim.Minute)
		var rep []*InReport
		o.Eager = !lazy
		r.m.SwapIn(o, func(x []*InReport, _ error) { rep = x })
		r.s.RunFor(20 * sim.Minute)
		if rep == nil {
			return -1
		}
		return rep[0].Duration()
	}
	lazy := inTime(true)
	eager := inTime(false)
	if lazy < 0 || eager < 0 {
		t.Fatal("swap-in incomplete")
	}
	if lazy >= eager {
		t.Fatalf("lazy (%v) not faster than eager (%v)", lazy, eager)
	}
}

func TestSwapInTimesGrowWithoutLazy(t *testing.T) {
	// Four swap cycles, each adding ~128 MB: eager swap-in times grow
	// with the aggregated delta; lazy stays roughly constant (§7.2).
	times := func(lazy bool) []sim.Time {
		r := newRig(4)
		o := Options{Eager: !lazy}
		var out []sim.Time
		for cyc := 0; cyc < 4; cyc++ {
			r.s.RunFor(sim.Second)
			r.dirty(128 << 20)
			ok := false
			r.m.SwapOut(o, func([]*OutReport, error) { ok = true })
			r.s.RunFor(15 * sim.Minute)
			if !ok {
				t.Fatal("swap-out stuck")
			}
			var rep []*InReport
			r.m.SwapIn(o, func(x []*InReport, _ error) { rep = x })
			r.s.RunFor(30 * sim.Minute)
			if rep == nil {
				t.Fatal("swap-in stuck")
			}
			out = append(out, rep[0].Duration())
		}
		return out
	}
	eager := times(false)
	lazy := times(true)
	if eager[3] <= eager[0]*3/2 {
		t.Fatalf("eager swap-in did not grow: %v", eager)
	}
	spread := lazy[3] - lazy[0]
	if spread < 0 {
		spread = -spread
	}
	if spread > lazy[0]/2 {
		t.Fatalf("lazy swap-in not constant: %v", lazy)
	}
	if eager[3] <= lazy[3]*2 {
		t.Fatalf("4th swap-in: eager %v vs lazy %v lacks the paper's gap", eager[3], lazy[3])
	}
}

func TestGoldenFetchAddsFlatCost(t *testing.T) {
	r := newRig(5)
	r.s.RunFor(sim.Second)
	r.dirty(16 << 20)
	r.m.Nodes[0].GoldenCached = false
	o := Options{}
	r.m.SwapOut(o, func([]*OutReport, error) {})
	r.s.RunFor(10 * sim.Minute)
	var rep []*InReport
	r.m.SwapIn(o, func(x []*InReport, _ error) { rep = x })
	r.s.RunFor(20 * sim.Minute)
	if rep == nil {
		t.Fatal("swap-in incomplete")
	}
	if !rep[0].GoldenFetched {
		t.Fatal("golden fetch not recorded")
	}
	if rep[0].Duration() < GoldenFetchTime {
		t.Fatalf("duration %v below Frisbee time", rep[0].Duration())
	}
	if !r.m.Nodes[0].GoldenCached {
		t.Fatal("golden not cached after fetch")
	}
}

func TestDoubleSwapErrors(t *testing.T) {
	r := newRig(6)
	if err := r.m.SwapIn(Options{}, nil); err == nil {
		t.Fatal("swap-in while running succeeded")
	}
	r.s.RunFor(sim.Second)
	r.m.SwapOut(Options{}, func([]*OutReport, error) {})
	r.s.RunFor(10 * sim.Minute)
	if err := r.m.SwapOut(Options{}, nil); err == nil {
		t.Fatal("double swap-out succeeded")
	}
}
