package evalrun

import "testing"

// TestBranchTableSharedStrictlyBetter is the acceptance property: at
// fan-out >= 4 the shared-lineage fan-out moves strictly fewer
// control-LAN bytes, holds strictly fewer server-side chain bytes, and
// has the whole frontier in service strictly sooner than naive
// per-branch full copies.
func TestBranchTableSharedStrictlyBetter(t *testing.T) {
	r := BranchTable(1)
	if r.Shared.AllRunningS <= 0 {
		t.Fatal("shared fan-out frontier never fully entered service")
	}
	if r.Naive.AllRunningS <= 0 {
		t.Fatal("naive fan-out frontier never fully entered service")
	}
	if r.Shared.MovedMB >= r.Naive.MovedMB {
		t.Fatalf("shared moved %.0f MB, naive %.0f MB — sharing saved nothing", r.Shared.MovedMB, r.Naive.MovedMB)
	}
	if r.Shared.AllRunningS >= r.Naive.AllRunningS {
		t.Fatalf("shared frontier live at %.0f s, naive at %.0f s — multicast staging not faster",
			r.Shared.AllRunningS, r.Naive.AllRunningS)
	}
	if r.Shared.StoredMB >= r.Naive.StoredMB {
		t.Fatalf("shared stores %.0f MB, naive %.0f MB — refcounting not deduplicating", r.Shared.StoredMB, r.Naive.StoredMB)
	}
	if r.Shared.MulticastSavedMB <= 0 {
		t.Fatal("shared staging reported no multicast savings")
	}
	if r.Naive.MulticastSavedMB != 0 {
		t.Fatalf("naive staging multicast %f MB — baseline contaminated", r.Naive.MulticastSavedMB)
	}
}

// TestBranchTableDeterministic: the benchmark is replayable bit-for-bit.
func TestBranchTableDeterministic(t *testing.T) {
	a, b := BranchTable(3), BranchTable(3)
	if *a != *b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}
