package xfer

import (
	"testing"

	"emucheck/internal/node"
	"emucheck/internal/sim"
)

// TestServerWorkConserving: transfers of mixed sizes and directions
// admitted at one instant share the pipe, and the last one completes at
// Σn/Rate — the batch drains exactly as fast as one serialized queue
// would, which is what lets every swap mode use the one fair-share pipe.
func TestServerWorkConserving(t *testing.T) {
	s := sim.New(1)
	sv := NewServer(s, 10<<20) // 10 MB/s
	sizes := []int64{5 << 20, 1 << 20, 12<<20 + 345, 3 << 20, 7<<20 + 1}
	var total int64
	var up, down uint64
	var last sim.Time
	for i, n := range sizes {
		total += n
		record := func() { last = max(last, s.Now()) }
		if i%2 == 0 {
			up += uint64(n)
			sv.StreamUpload("a", n, record)
		} else {
			down += uint64(n)
			sv.StreamDownload("b", n, record)
		}
	}
	s.Run()
	want := sim.Time(float64(total) / float64(sv.Rate) * float64(sim.Second))
	if d := last - want; d < -sim.Microsecond || d > sim.Microsecond {
		t.Fatalf("last transfer done at %v, want Σn/Rate = %v", last, want)
	}
	if sv.Received != up || sv.Served != down {
		t.Fatalf("received %d / served %d, want %d / %d", sv.Received, sv.Served, up, down)
	}
	if sv.ByTag["a"]+sv.ByTag["b"] != total || len(sv.streams) != 0 {
		t.Fatalf("tags %v, %d streams left", sv.ByTag, len(sv.streams))
	}
}

// TestServerRateAndFIFO: a lone transfer drains at the pipe's rate, one
// admitted when it ends follows it back to back, and equal transfers
// admitted together finish at the same instant in admission order.
func TestServerRateAndFIFO(t *testing.T) {
	s := sim.New(1)
	sv := NewServer(s, 10<<20) // 10 MB/s
	var t1, t2 sim.Time
	sv.StreamUpload("", 10<<20, func() {
		t1 = s.Now()
		sv.StreamUpload("", 10<<20, func() { t2 = s.Now() })
	})
	s.Run()
	if t1 != sim.Second {
		t.Fatalf("first transfer at %v", t1)
	}
	if t2 != 2*sim.Second {
		t.Fatalf("second transfer at %v", t2)
	}
	if sv.Received != 20<<20 {
		t.Fatal("byte accounting")
	}

	s = sim.New(1)
	sv = NewServer(s, 10<<20)
	var order []int
	var ends []sim.Time
	for i := range 3 {
		sv.StreamUpload("", 10<<20, func() { order = append(order, i); ends = append(ends, s.Now()) })
	}
	s.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("completion order %v, want admission order", order)
	}
	for _, e := range ends {
		if e != 3*sim.Second {
			t.Fatalf("shared transfers ended at %v, want all at 3s", ends)
		}
	}
}

func TestServerZeroBytes(t *testing.T) {
	s := sim.New(1)
	sv := NewServer(s, 0) // default rate
	up, down := false, false
	sv.StreamUpload("", 0, func() { up = true })
	sv.StreamDownload("", 0, func() { down = true })
	s.Run()
	if !up || !down {
		t.Fatalf("zero transfers never fired: upload %v, download %v", up, down)
	}
	if sv.Received != 0 || sv.Served != 0 || len(sv.streams) != 0 {
		t.Fatalf("zero transfers accounted %d+%d bytes / %d streams", sv.Received, sv.Served, len(sv.streams))
	}
	if sv.Rate != 12_500_000 {
		t.Fatalf("default rate = %d", sv.Rate)
	}
}

// TestServerCopy: a copy ends when the slower of its paced disk side and
// its stream ends, charges its bytes to the ledgers once, and fires for
// an empty range.
func TestServerCopy(t *testing.T) {
	const n = 10 << 20
	// diskAlone times the paced disk side on its own.
	diskAlone := func(rate int64) sim.Time {
		s := sim.New(1)
		var end sim.Time
		PaceDisk(s, node.NewDisk(s, node.DefaultParams()), node.Read, 0, n, rate, func() { end = s.Now() })
		s.Run()
		return end
	}
	for _, c := range []struct {
		name       string
		rate, pipe int64
	}{
		{"disk-bound", 2 << 20, 50 << 20},
		{"pipe-bound", 0, 1 << 20},
	} {
		s := sim.New(1)
		d := node.NewDisk(s, node.DefaultParams())
		sv := NewServer(s, c.pipe)
		var end sim.Time
		calls := 0
		sv.Copy("e", d, node.Read, 0, n, c.rate, func() { end = s.Now(); calls++ })
		s.Run()
		stream := sim.Time(float64(n) / float64(c.pipe) * float64(sim.Second))
		if want := max(diskAlone(c.rate), stream); calls != 1 || end != want {
			t.Fatalf("%s: done %d times, at %v, want once at %v", c.name, calls, end, want)
		}
		if sv.Received != n || sv.Served != 0 || sv.ByTag["e"] != n || d.ReadBytes != n {
			t.Fatalf("%s: received %d served %d tag %d disk %d", c.name, sv.Received, sv.Served, sv.ByTag["e"], d.ReadBytes)
		}
	}

	s := sim.New(1)
	sv := NewServer(s, 0)
	fired := false
	sv.Copy("e", node.NewDisk(s, node.DefaultParams()), node.Write, 0, 0, DefaultRateLimit, func() { fired = true })
	s.Run()
	if !fired || sv.Served != 0 || len(sv.ByTag) != 0 {
		t.Fatalf("empty copy: fired %v, served %d, tags %v", fired, sv.Served, sv.ByTag)
	}
}

func TestCopyOutMovesEverything(t *testing.T) {
	s := sim.New(1)
	d := node.NewDisk(s, node.DefaultParams())
	sv := NewServer(s, 12<<20)
	done := false
	sv.Copy("", d, node.Read, 0, 10<<20, DefaultRateLimit, func() { done = true })
	s.Run()
	if !done {
		t.Fatal("copy never finished")
	}
	if d.ReadBytes != 10<<20 {
		t.Fatalf("disk reads %d", d.ReadBytes)
	}
	if sv.Received != 10<<20 {
		t.Fatal("server bytes")
	}
}

func TestRateLimitSlowsCopy(t *testing.T) {
	run := func(limit int64) sim.Time {
		s := sim.New(1)
		d := node.NewDisk(s, node.DefaultParams())
		sv := NewServer(s, 50<<20)
		var end sim.Time
		sv.Copy("", d, node.Read, 0, 20<<20, limit, func() { end = s.Now() })
		s.Run()
		return end
	}
	fast := run(0)
	slow := run(2 << 20) // 2 MB/s -> ~10 s
	if slow < 9*sim.Second {
		t.Fatalf("rate limit ineffective: %v", slow)
	}
	if fast >= slow/2 {
		t.Fatalf("unthrottled (%v) not faster than throttled (%v)", fast, slow)
	}
}

func TestCopyInWritesDisk(t *testing.T) {
	s := sim.New(1)
	d := node.NewDisk(s, node.DefaultParams())
	sv := NewServer(s, 12<<20)
	done := false
	sv.Copy("", d, node.Write, 0, 5<<20, DefaultRateLimit, func() { done = true })
	s.Run()
	if !done || d.WriteBytes != 5<<20 || sv.Served != 5<<20 {
		t.Fatalf("done=%v disk=%d served=%d", done, d.WriteBytes, sv.Served)
	}
}

type memBackend struct {
	d *node.Disk
}

func (b *memBackend) Read(off, n int64, done func()) {
	b.d.Submit(&node.DiskRequest{Op: node.Read, LBA: off, Bytes: n, Done: done})
}
func (b *memBackend) Write(off, n int64, done func()) {
	b.d.Submit(&node.DiskRequest{Op: node.Write, LBA: off, Bytes: n, Done: done})
}

func TestLazyMirrorDemandFault(t *testing.T) {
	s := sim.New(1)
	d := node.NewDisk(s, node.DefaultParams())
	sv := NewServer(s, 12<<20)
	lm := NewLazyMirror(s, &memBackend{d}, sv, 16<<20)
	var readDone sim.Time
	lm.Read(5<<20, 1<<20, func() { readDone = s.Now() })
	s.Run()
	if lm.Faults == 0 {
		t.Fatal("no demand fault")
	}
	// The fault had to pull ~2 chunks over a 12 MB/s pipe first.
	if readDone < 100*sim.Millisecond {
		t.Fatalf("read finished too fast: %v", readDone)
	}
	// Second read of the same range: no new faults.
	f := lm.Faults
	lm.Read(5<<20, 1<<20, nil)
	s.Run()
	if lm.Faults != f {
		t.Fatal("refetched present chunk")
	}
}

func TestLazyMirrorBackgroundFill(t *testing.T) {
	s := sim.New(1)
	d := node.NewDisk(s, node.DefaultParams())
	sv := NewServer(s, 12<<20)
	lm := NewLazyMirror(s, &memBackend{d}, sv, 8<<20)
	done := false
	lm.StartBackground(func() { done = true })
	s.Run()
	if !done {
		t.Fatal("background fill incomplete")
	}
	if lm.Resident() < 8<<20 {
		t.Fatalf("resident %d", lm.Resident())
	}
	// Reads now hit locally without faults.
	lm.Read(0, 8<<20, nil)
	s.Run()
	if lm.Faults != 0 {
		t.Fatal("fault after full fill")
	}
}

func TestLazyMirrorWriteMarksPresent(t *testing.T) {
	s := sim.New(1)
	d := node.NewDisk(s, node.DefaultParams())
	sv := NewServer(s, 12<<20)
	lm := NewLazyMirror(s, &memBackend{d}, sv, 8<<20)
	lm.Write(0, 1<<20, nil)
	s.Run()
	lm.Read(0, 1<<20, nil)
	s.Run()
	if lm.Faults != 0 {
		t.Fatal("write did not mark chunk present")
	}
}
