package metrics

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"emucheck/internal/sim"
)

// TestLogFlushMatchesSeries logs observations with steps forward, back
// and across a long gap, values of either sign and repeated ones, and
// requires every Flush to append exactly what Series.Add would have.
func TestLogFlushMatchesSeries(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var l Log
	got, want := NewSeries("log"), NewSeries("ref")
	now, size := sim.Time(0), int64(1514)
	for _, n := range []int{0, 1, 1000, 400_000} {
		for i := 0; i < n; i++ {
			switch r.Intn(100) {
			case 0:
				now -= sim.Time(r.Int63n(int64(sim.Second)))
			case 1:
				now += sim.Time(r.Int63n(int64(1000 * sim.Second)))
			default:
				now += sim.Time(r.Int63n(int64(30 * sim.Microsecond)))
			}
			if r.Intn(50) == 0 {
				size = r.Int63n(1<<40) - 1<<39
			}
			l.Add(now, size)
			want.Add(now, float64(size))
		}
		l.Flush(got)
		if !slices.Equal(got.Samples, want.Samples) {
			t.Fatalf("after %d observations the flushed series differs from Series.Add", n)
		}
	}
}

// TestLogAllocs holds a long log to fixed-size chunks, never regrown:
// 2^20 packet-trace observations of 3 bytes take their 3 MiB and at most
// one chunk more, and Flush allocates only the series' exact room.
func TestLogAllocs(t *testing.T) {
	const n = 1 << 20
	var l Log
	objs, bytes := allocs(func() {
		for i := 0; i < n; i++ {
			l.Add(sim.Time(i)*12*sim.Microsecond, 1514)
		}
	})
	// The slack covers the chunk list and what the runtime allocates on
	// its own while a collection runs.
	if limit := uint64(3*n + logChunk + 64<<10); objs > 64 || bytes > limit {
		t.Fatalf("%d allocations of %d bytes to log %d observations, want at most 64 of %d bytes", objs, bytes, n, limit)
	}
	s := NewSeries("x")
	if _, bytes := allocs(func() { l.Flush(s) }); bytes > 16*n+64<<10 {
		t.Fatalf("flush allocated %d bytes, want one series of %d samples", bytes, n)
	}
	if s.Len() != n || cap(s.Samples) > n+n/64 {
		t.Fatalf("flushed %d samples into room for %d, want %d", s.Len(), cap(s.Samples), n)
	}
}

// allocs reports the heap objects and bytes f allocates.
func allocs(f func()) (objs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}
