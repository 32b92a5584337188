package xfer

import (
	"testing"

	"emucheck/internal/sim"
)

// TestStreamsShareBandwidth: two equal concurrent streams must each see
// half the pipe and finish together, taking twice the solo time — the
// processor-sharing contract.
func TestStreamsShareBandwidth(t *testing.T) {
	s := sim.New(1)
	sv := NewServer(s, 10<<20) // 10 MB/s
	const n = 10 << 20         // 10 MB each

	var doneA, doneB sim.Time
	sv.StreamUpload("a", n, func() { doneA = s.Now() })
	sv.StreamUpload("b", n, func() { doneB = s.Now() })
	s.Run()

	if doneA == 0 || doneB == 0 {
		t.Fatal("streams never completed")
	}
	if doneA != doneB {
		t.Fatalf("equal streams finished apart: %v vs %v", doneA, doneB)
	}
	want := 2 * sim.Second
	if doneA < want-sim.Millisecond || doneA > want+sim.Millisecond {
		t.Fatalf("two shared 1 s streams should take ~2 s, took %v", doneA)
	}
	if sv.ByTag["a"] != n || sv.ByTag["b"] != n {
		t.Fatalf("per-tag accounting wrong: %v", sv.ByTag)
	}
}

// TestStreamSmallNotBlockedByLarge: a small stream admitted alongside a
// huge one must finish far sooner than the huge one — the anti-head-of-
// line property serialized FIFO transfers lack.
func TestStreamSmallNotBlockedByLarge(t *testing.T) {
	s := sim.New(1)
	sv := NewServer(s, 10<<20)

	var bigDone, smallDone sim.Time
	sv.StreamUpload("big", 100<<20, func() { bigDone = s.Now() })
	sv.StreamUpload("small", 1<<20, func() { smallDone = s.Now() })
	s.Run()

	if smallDone == 0 || bigDone == 0 {
		t.Fatal("streams never completed")
	}
	// Small: 1 MB at a 5 MB/s share = 0.2 s. FIFO would have made it
	// wait 10 s behind the big one.
	if smallDone > sim.Second {
		t.Fatalf("small stream head-of-line blocked: finished at %v", smallDone)
	}
	if bigDone < 10*sim.Second {
		t.Fatalf("big stream finished impossibly fast: %v", bigDone)
	}
	if len(sv.streams) != 0 {
		t.Fatalf("%d streams leaked", len(sv.streams))
	}
}

// TestStreamStaggeredAdmission: a stream joining midway slows the first
// one from its join point only; totals stay conserved.
func TestStreamStaggeredAdmission(t *testing.T) {
	s := sim.New(1)
	sv := NewServer(s, 10<<20)

	var doneA, doneB sim.Time
	sv.StreamUpload("a", 10<<20, func() { doneA = s.Now() })
	s.At(500*sim.Millisecond, "join", func() {
		sv.StreamUpload("b", 10<<20, func() { doneB = s.Now() })
	})
	s.Run()

	// A: 5 MB solo in 0.5 s, then shares; both have 1 s of shared pipe
	// ahead... A finishes at 0.5 + 5/5 = 1.5 s, B drains its remaining
	// 5 MB solo after that: 1.5 + 0.5 = 2.0 s.
	if doneA < 1490*sim.Millisecond || doneA > 1510*sim.Millisecond {
		t.Fatalf("stream A finished at %v, want ~1.5s", doneA)
	}
	if doneB < 1990*sim.Millisecond || doneB > 2010*sim.Millisecond {
		t.Fatalf("stream B finished at %v, want ~2s", doneB)
	}
}
