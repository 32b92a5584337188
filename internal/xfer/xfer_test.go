package xfer

import (
	"testing"

	"emucheck/internal/node"
	"emucheck/internal/sim"
)

func TestServerRateAndFIFO(t *testing.T) {
	s := sim.New(1)
	sv := NewServer(s, 10<<20) // 10 MB/s
	var t1, t2 sim.Time
	sv.UploadTagged("", 10<<20, func() { t1 = s.Now() })
	sv.UploadTagged("", 10<<20, func() { t2 = s.Now() })
	s.Run()
	if t1 != sim.Second {
		t.Fatalf("first transfer at %v", t1)
	}
	if t2 != 2*sim.Second {
		t.Fatalf("second transfer at %v (no FIFO sharing)", t2)
	}
	if sv.Received != 20<<20 {
		t.Fatal("byte accounting")
	}
}

func TestServerZeroBytes(t *testing.T) {
	s := sim.New(1)
	sv := NewServer(s, 0) // default rate
	fired, streamed := false, false
	sv.DownloadTagged("", 0, func() { fired = true })
	sv.StreamDownload("", 0, func() { streamed = true })
	s.Run()
	if !fired || !streamed {
		t.Fatalf("zero transfers never fired: fifo %v, stream %v", fired, streamed)
	}
	if sv.Served != 0 || sv.ActiveStreams() != 0 {
		t.Fatalf("zero transfers accounted %d bytes / %d streams", sv.Served, sv.ActiveStreams())
	}
	if sv.Rate != 12_500_000 {
		t.Fatalf("default rate = %d", sv.Rate)
	}
}

func TestCopyOutMovesEverything(t *testing.T) {
	s := sim.New(1)
	d := node.NewDisk(s, node.DefaultParams())
	sv := NewServer(s, 12<<20)
	c := NewCopier(s, d, sv)
	var moved int64
	c.CopyOut(0, 10<<20, func(m int64) { moved = m })
	s.Run()
	if moved != 10<<20 {
		t.Fatalf("moved %d", moved)
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
		c := NewCopier(s, d, sv)
		c.RateLimit = limit
		var end sim.Time
		c.CopyOut(0, 20<<20, func(int64) { end = s.Now() })
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

func TestCopierCancel(t *testing.T) {
	s := sim.New(1)
	d := node.NewDisk(s, node.DefaultParams())
	sv := NewServer(s, 10<<20)
	c := NewCopier(s, d, sv)
	c.RateLimit = 1 << 20
	var moved int64 = -1
	c.CopyOut(0, 100<<20, func(m int64) { moved = m })
	s.RunFor(3 * sim.Second)
	c.Cancel()
	s.Run()
	if moved < 0 {
		t.Fatal("done callback never fired")
	}
	if moved >= 100<<20 {
		t.Fatal("cancel did not stop the copy")
	}
}

func TestCopyInWritesDisk(t *testing.T) {
	s := sim.New(1)
	d := node.NewDisk(s, node.DefaultParams())
	sv := NewServer(s, 12<<20)
	c := NewCopier(s, d, sv)
	var moved int64
	c.CopyIn(0, 5<<20, func(m int64) { moved = m })
	s.Run()
	if moved != 5<<20 || d.WriteBytes != 5<<20 || sv.Served != 5<<20 {
		t.Fatalf("moved=%d disk=%d served=%d", moved, d.WriteBytes, sv.Served)
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
	lm := NewLazyMirror(s, &memBackend{d}, sv, d, 16<<20)
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
	lm := NewLazyMirror(s, &memBackend{d}, sv, d, 8<<20)
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
	lm := NewLazyMirror(s, &memBackend{d}, sv, d, 8<<20)
	lm.Write(0, 1<<20, nil)
	s.Run()
	lm.Read(0, 1<<20, nil)
	s.Run()
	if lm.Faults != 0 {
		t.Fatal("write did not mark chunk present")
	}
}
