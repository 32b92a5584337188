package sim

import (
	"math/rand"
	"testing"
)

// TestFIFOMatchesSlice drives a FIFO and a plain slice through the same
// random pushes, pops and removals and requires the same contents.
func TestFIFOMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q FIFO[int]
	var ref []int
	next := 0
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(ref) == 0:
			q.Push(next)
			ref = append(ref, next)
			next++
		case r < 9:
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, ref[0])
			}
			ref = ref[1:]
		default:
			i := rng.Intn(len(ref))
			q.Remove(i)
			ref = append(ref[:i:i], ref[i+1:]...)
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
		}
		for i, v := range ref {
			if q.At(i) != v {
				t.Fatalf("step %d: At(%d) = %d, want %d", step, i, q.At(i), v)
			}
		}
	}
	q.Clear()
	if q.Len() != 0 {
		t.Fatalf("Len after Clear = %d", q.Len())
	}
}

// TestFIFOSteadyStateAllocs checks a queue that never fully drains
// stops allocating once it has reached its peak length: Push reuses
// the consumed front of the slice instead of growing it.
func TestFIFOSteadyStateAllocs(t *testing.T) {
	var q FIFO[*Event]
	e := &Event{}
	for i := 0; i < 8; i++ {
		q.Push(e)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(e)
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("steady Push+Pop allocates %.1f per cycle, want 0", allocs)
	}
	if q.Len() != 8 {
		t.Fatalf("Len = %d, want 8", q.Len())
	}
}
