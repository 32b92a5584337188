package node

import (
	"testing"

	"emucheck/internal/sim"
)

func TestDiskSequentialDetection(t *testing.T) {
	s := sim.New(1)
	d := NewDisk(s, DefaultParams())
	d.Submit(&DiskRequest{Op: Write, LBA: 0, Bytes: 4096})
	d.Submit(&DiskRequest{Op: Write, LBA: 4096, Bytes: 4096}) // contiguous
	s.Run()
	if d.SeekOps != 0 {
		t.Fatalf("sequential writes seeked %d times", d.SeekOps)
	}
	d.Submit(&DiskRequest{Op: Write, LBA: 1 << 30, Bytes: 4096})
	s.Run()
	if d.SeekOps != 1 {
		t.Fatalf("distant write seeks = %d", d.SeekOps)
	}
}

func TestDiskShortVsLongSeek(t *testing.T) {
	s := sim.New(1)
	p := DefaultParams()
	d := NewDisk(s, p)
	short := d.ServiceTime(32<<20, 4096) // within 64 MB: track seek
	d.headPos = 0
	long := d.ServiceTime(100<<30, 4096) // far: average seek
	if short >= long {
		t.Fatalf("short seek (%v) not cheaper than long (%v)", short, long)
	}
}

func TestDrainWithSubsequentSubmissions(t *testing.T) {
	s := sim.New(1)
	d := NewDisk(s, DefaultParams())
	var drained sim.Time = -1
	d.Submit(&DiskRequest{Op: Write, LBA: 0, Bytes: 1 << 20})
	d.Drain(func() { drained = s.Now() })
	// A request submitted after Drain keeps the disk busy; drain fires
	// only when the queue is truly empty.
	d.Submit(&DiskRequest{Op: Write, LBA: 1 << 30, Bytes: 1 << 20})
	s.Run()
	if drained < 0 {
		t.Fatal("drain never fired")
	}
	if d.QueueLen() != 0 {
		t.Fatal("queue not empty")
	}
}

func TestCPUProgressWithPartialShares(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s)
	c.Steal(0, 100*sim.Millisecond, 0.25)
	// 100 ms wall at 75% availability = 75 ms of work.
	if got := c.Progress(0, 100*sim.Millisecond); got != 75*sim.Millisecond {
		t.Fatalf("progress = %v", got)
	}
}

func TestCPUStolenTotalAccounting(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s)
	c.Steal(0, 100*sim.Millisecond, 0.5)
	c.Steal(200*sim.Millisecond, 100*sim.Millisecond, 1.0)
	if got := c.StolenTotal; got != 150*sim.Millisecond {
		t.Fatalf("stolen total = %v", got)
	}
}

func TestCPUPendingStealsGC(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s)
	c.Steal(0, 10*sim.Millisecond, 0.5)
	c.Steal(0, 20*sim.Millisecond, 0.5)
	s.RunFor(15 * sim.Millisecond)
	if got := c.PendingSteals(); got != 1 {
		t.Fatalf("pending = %d", got)
	}
	s.RunFor(10 * sim.Millisecond)
	if got := c.PendingSteals(); got != 0 {
		t.Fatalf("pending = %d", got)
	}
}

func TestDiskOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("op strings")
	}
}

// TestDiskSubmitAllocs holds the disk to zero heap allocations per
// request: Submit queues a copy of the caller's request, so a literal
// stays on the caller's stack, and one reused timer serves every
// completion.
func TestDiskSubmitAllocs(t *testing.T) {
	s := sim.New(1)
	d := NewDisk(s, DefaultParams())
	completed := 0
	done := func() { completed++ }
	var lba int64
	allocs := testing.AllocsPerRun(100, func() {
		d.Submit(&DiskRequest{Op: Write, LBA: lba, Bytes: 4096, Done: done})
		s.Run()
		lba += 4096
	})
	if completed != 101 || d.WriteOps != 101 {
		t.Fatalf("%d completions, %d write ops, want 101", completed, d.WriteOps)
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocations per request, want 0", allocs)
	}
}
