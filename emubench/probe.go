package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: neighbours slow memory-
// heavy code by up to 2x for minutes at a time. A phase's host time is
// therefore reported at a reference speed. While the phase runs, the
// workload calls meter.tick at natural points (a RunFor slice, a
// scenario), and every probeEvery the meter runs a fixed probe: a small
// discrete-event loop that pops a heap, writes memory and looks up a
// hash table the way the simulator does, and slows down with it. It
// never allocates, so it leaves the workload's heap alone. The phase's
// host time, without the probes, is scaled by probeNominal over the
// mean probe time (README.md, "Host speed").

const (
	// probeEvery is how often a phase is probed.
	probeEvery = 100 * time.Millisecond
	// probeBracket is how many probes run just before and just after a
	// phase. A phase that is one call (the fleet's New and Run) gets
	// only these, so they are several, to average out a probe's noise.
	probeBracket = 3
	// probeEvents sizes one probe (about 4 ms on an idle host).
	probeEvents = 13000
	// probeNominal is the probe's time on the reference host when it
	// is idle: the speed the reported seconds are given at.
	probeNominal = 4 * time.Millisecond
)

// meter times one phase of a round. With probing off (traced rounds)
// it reports plain host time.
type meter struct {
	probing bool
	start   time.Time
	last    time.Time // end of the latest probe
	probes  []time.Duration
	inProbe time.Duration // probe time inside the phase
	mean    time.Duration // mean probe time of the latest phase
}

// begin starts a phase, probing the host first.
func (m *meter) begin() {
	m.probes, m.inProbe = m.probes[:0], 0
	if m.probing {
		for range probeBracket {
			m.probe()
		}
		m.inProbe = 0
	}
	m.start = time.Now()
}

// tick probes the host if probeEvery has passed since the last probe.
func (m *meter) tick() {
	if m.probing && time.Since(m.last) >= probeEvery {
		m.probe()
	}
}

// end closes the phase and returns its host time without the probes,
// and that time at the reference speed (the same when not probing).
func (m *meter) end() (host, ref time.Duration) {
	host = time.Since(m.start) - m.inProbe
	if !m.probing {
		return host, host
	}
	for range probeBracket {
		m.probe()
	}
	var sum time.Duration
	for _, p := range m.probes {
		sum += p
	}
	m.mean = sum / time.Duration(len(m.probes))
	return host, time.Duration(float64(host) * float64(probeNominal) / float64(m.mean))
}

func (m *meter) probe() {
	if probeKeys == nil {
		probeInit()
	}
	t0 := time.Now()
	probeLoop(probeEvents)
	m.last = time.Now()
	d := m.last.Sub(t0)
	m.probes = append(m.probes, d)
	m.inProbe += d
}

// The probe's state is set up once, on the first probe, so the probe
// never allocates. Its two 1 MB arrays are mapped outside the Go heap:
// held in the heap, they would raise the collector's heap goal and the
// workload's peak RSS by twice their size.
var (
	probePool  []probeEvent // the loop's fixed event pool
	probeHeap  []int32      // pending events, a binary heap over the pool
	probeTable []byte       // rows written by the events
	probeKeys  []uint64     // open-addressing hash set looked up by the events
	probeSink  uint64
)

const (
	probeRows     = 4096
	probeRowBytes = 256
	probeKeyBits  = 17 // 128k slots holding 64k keys
	probeHash     = 0x9e3779b97f4a7c15
)

// probeEvent is one pending event of the probe loop.
type probeEvent struct{ at, seq int64 }

func probeLess(a, b int32) bool {
	x, y := &probePool[a], &probePool[b]
	return x.at < y.at || (x.at == y.at && x.seq < y.seq)
}

// probeInit maps the probe's arrays and fills the hash set.
func probeInit() {
	probePool = make([]probeEvent, 200)
	probeHeap = make([]int32, 0, len(probePool))
	probeTable = mapAnon(probeRows * probeRowBytes)
	keys := mapAnon(8 << probeKeyBits)
	probeKeys = unsafe.Slice((*uint64)(unsafe.Pointer(&keys[0])), 1<<probeKeyBits)
	for i := uint64(1); i <= 1<<(probeKeyBits-1); i++ {
		probeKeys[probeSlot(i*probeHash)] = i * probeHash
	}
}

// mapAnon maps n zeroed bytes outside the Go heap. A failed mapping
// panics, which ends the run without a result.
func mapAnon(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("probe: mmap %d bytes: %v", n, err))
	}
	return b
}

// probeSlot returns the slot of the hash set that holds key, or the
// empty slot where it would go.
func probeSlot(key uint64) uint64 {
	const mask = 1<<probeKeyBits - 1
	h := (key * probeHash) >> (64 - probeKeyBits)
	for probeKeys[h] != 0 && probeKeys[h] != key {
		h = (h + 1) & mask
	}
	return h
}

// probeLoop runs n events of an event loop over a binary heap of 200
// pending events: each event draws a xorshift number, writes every
// eighth byte of the first 64–255 bytes of a row of a 1 MB table, looks
// a key up in a 64k-key hash set and schedules itself again.
func probeLoop(n int) {
	push := func(id int32) {
		probeHeap = append(probeHeap, id)
		for i := len(probeHeap) - 1; i > 0 && probeLess(probeHeap[i], probeHeap[(i-1)/2]); i = (i - 1) / 2 {
			probeHeap[i], probeHeap[(i-1)/2] = probeHeap[(i-1)/2], probeHeap[i]
		}
	}
	probeHeap = probeHeap[:0]
	var seq int64
	for id := range probePool {
		seq++
		probePool[id] = probeEvent{at: int64(id), seq: seq}
		push(int32(id))
	}
	x := uint64(0x2545f4914f6cdd1d)
	for ; n > 0; n-- {
		id := probeHeap[0]
		last := len(probeHeap) - 1
		probeHeap[0], probeHeap = probeHeap[last], probeHeap[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && probeLess(probeHeap[c+1], probeHeap[c]) {
				c++
			}
			if !probeLess(probeHeap[c], probeHeap[i]) {
				break
			}
			probeHeap[i], probeHeap[c] = probeHeap[c], probeHeap[i]
			i = c
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		row := probeTable[x%probeRows*probeRowBytes:][:probeRowBytes]
		for j := uint64(0); j < 64+(x>>20)%192; j += 8 {
			row[j] = byte(x >> (j % 56))
		}
		probeSink += probeSlot((x%(1<<(probeKeyBits-1)) + 1) * probeHash)
		seq++
		probePool[id] = probeEvent{at: probePool[id].at + int64(x%1000) + 1, seq: seq}
		push(id)
	}
}
