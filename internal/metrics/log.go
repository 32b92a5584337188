package metrics

import (
	"encoding/binary"
	"slices"

	"emucheck/internal/sim"
)

// logChunk is the size of one Log chunk: about 350 000 packet arrivals,
// five and a half seconds of the Fig 6 stream.
const logChunk = 1 << 20

// Log is an append-only record of (time, integer value) observations,
// such as a packet trace's arrival times and sizes, kept compact until
// it is read. Each observation is one varint of its time step, with a
// flag bit set when the value changed, followed in that case by the
// varint of the value step; a packet trace takes about 3 bytes per
// packet where a Series takes 16. The bytes go into fixed-size chunks
// that are never regrown, so a long trace never holds two copies of
// itself while it grows. Flush expands the log into a Series. Time
// steps must stay below 2^62 ns (146 years) in magnitude.
type Log struct {
	chunks [][]byte
	n      int      // observations since the last Flush
	t      sim.Time // the last observation
	v      int64
}

// Add records an observation.
func (l *Log) Add(t sim.Time, v int64) {
	k := len(l.chunks) - 1
	if k < 0 || cap(l.chunks[k])-len(l.chunks[k]) < 2*binary.MaxVarintLen64 {
		l.chunks = append(l.chunks, make([]byte, 0, logChunk))
		k++
	}
	dt := int64(t - l.t)
	x := uint64(dt<<1^dt>>63) << 1 // zigzag time step, then the flag
	if v == l.v {
		l.chunks[k] = binary.AppendUvarint(l.chunks[k], x)
	} else {
		c := binary.AppendUvarint(l.chunks[k], x|1)
		l.chunks[k] = binary.AppendVarint(c, v-l.v)
	}
	l.t, l.v = t, v
	l.n++
}

// Flush appends the observations recorded since the last Flush to s, in
// order and exactly as added, growing s at most once, and empties the
// log.
func (l *Log) Flush(s *Series) {
	s.Samples = slices.Grow(s.Samples, l.n)
	var t sim.Time
	var v int64
	for _, c := range l.chunks {
		for len(c) > 0 {
			x, i := binary.Uvarint(c)
			c = c[i:]
			t += sim.Time(int64(x>>2) ^ -int64(x>>1&1))
			if x&1 != 0 {
				dv, j := binary.Varint(c)
				c = c[j:]
				v += dv
			}
			s.Samples = append(s.Samples, Sample{t, float64(v)})
		}
	}
	*l = Log{}
}
