package xfer

import (
	"testing"

	"emucheck/internal/node"
	"emucheck/internal/sim"
)

func TestLazyMirrorPartialTailChunk(t *testing.T) {
	s := sim.New(1)
	d := node.NewDisk(s, node.DefaultParams())
	sv := NewServer(s, 12<<20)
	// Total not a multiple of the chunk size: 2.5 MB.
	lm := NewLazyMirror(s, &memBackend{d}, sv, (2<<20)+(1<<19))
	done := false
	lm.StartBackground(func() { done = true })
	s.Run()
	if !done {
		t.Fatal("partial tail never filled")
	}
	if sv.Served != (2<<20)+(1<<19) {
		t.Fatalf("served %d", sv.Served)
	}
	if got := lm.Resident(); got != (2<<20)+(1<<19) {
		t.Fatalf("resident %d bytes of a filled 2.5 MB region", got)
	}
}

func TestLazyMirrorBaseOffsetIsolation(t *testing.T) {
	s := sim.New(1)
	d := node.NewDisk(s, node.DefaultParams())
	sv := NewServer(s, 12<<20)
	lm := NewLazyMirror(s, &memBackend{d}, sv, 4<<20)
	lm.Base = 1 << 30
	// Reads fully outside the managed window never fault.
	lm.Read(0, 1<<20, nil)
	lm.Read(2<<30, 1<<20, nil)
	s.Run()
	if lm.Faults != 0 {
		t.Fatalf("out-of-window reads faulted %d times", lm.Faults)
	}
	// A read inside the window faults.
	lm.Read(1<<30, 1<<20, nil)
	s.Run()
	if lm.Faults == 0 {
		t.Fatal("in-window read did not fault")
	}
}

func TestLazyMirrorFaultAndFillDoNotDuplicate(t *testing.T) {
	s := sim.New(1)
	d := node.NewDisk(s, node.DefaultParams())
	sv := NewServer(s, 12<<20)
	lm := NewLazyMirror(s, &memBackend{d}, sv, 8<<20)
	lm.SetBackgroundRate(0)
	lm.StartBackground(nil)
	// Demand-read everything while the fill races.
	for off := int64(0); off < 8<<20; off += 1 << 20 {
		lm.Read(off, 1<<20, nil)
	}
	s.Run()
	// No chunk may be downloaded twice: total served == total bytes.
	if sv.Served != 8<<20 {
		t.Fatalf("served %d for an 8MB region (duplicate downloads)", sv.Served)
	}
}

// TestCopierChunkBoundary: a copy whose length is not a chunk multiple
// issues full chunks and then the remainder, moving every byte once.
func TestCopierChunkBoundary(t *testing.T) {
	s := sim.New(1)
	d := node.NewDisk(s, node.DefaultParams())
	sv := NewServer(s, 12<<20)
	const n = (3 << 20) + 123
	done := false
	sv.Copy("", d, node.Read, 0, n, DefaultRateLimit, func() { done = true })
	s.Run()
	if !done || d.ReadBytes != n || d.ReadOps != 4 || sv.Received != n {
		t.Fatalf("done=%v read %d bytes in %d ops, received %d", done, d.ReadBytes, d.ReadOps, sv.Received)
	}
}

// TestServerInterleavedDirections: uploads and downloads share the one
// pipe rather than each getting the full rate in its own direction.
func TestServerInterleavedDirections(t *testing.T) {
	s := sim.New(1)
	sv := NewServer(s, 10<<20)
	var t1, t2 sim.Time
	sv.StreamUpload("", 5<<20, func() { t1 = s.Now() })
	sv.StreamDownload("", 5<<20, func() { t2 = s.Now() })
	s.Run()
	if t1 != sim.Second || t2 != sim.Second {
		t.Fatalf("t1=%v t2=%v, want both at 1s", t1, t2)
	}
	if sv.Received != 5<<20 || sv.Served != 5<<20 {
		t.Fatalf("received %d served %d", sv.Received, sv.Served)
	}
}
