package storage

import (
	"fmt"

	"emucheck/internal/sim"
)

// TierKind names the physical tier committed checkpoint-chain segments
// live on.
type TierKind int

// Storage tiers.
const (
	// DiskKind is the node-local snapshot disk (the paper's second
	// local disk, §6): committed segments land next to the node at
	// seek + bandwidth cost and restores never cross the control LAN —
	// until the disk's capacity budget is exhausted and segments spill
	// to the shared pool.
	DiskKind TierKind = iota + 1
	// RemoteKind is the shared pool store reached over the control
	// LAN: segment bytes ride the file server's fair-share pipe (the
	// xfer cost model), plus a per-request round trip.
	RemoteKind
)

// Default cost parameters for the simulated tiers.
const (
	// DefaultSnapshotDiskBytes is the node-local snapshot disk budget
	// (the paper sizes it to hold trees with thousands of nodes; 32 GB
	// keeps several tenants' chains resident without being infinite).
	DefaultSnapshotDiskBytes = 32 << 30
	// DefaultDiskSeek is the per-segment positioning cost on the
	// snapshot disk.
	DefaultDiskSeek = 4 * sim.Millisecond
	// DefaultDiskRate is the snapshot disk's sequential bandwidth in
	// bytes/second.
	DefaultDiskRate = 70 << 20
	// DefaultRemoteRTT is the shared pool's per-request round trip.
	DefaultRemoteRTT = 2 * sim.Millisecond
)

// Tier is the physical home of committed checkpoint-chain segments.
// The ChainStore remains the authoritative metadata index (refcounts,
// content addresses); a Tier records where the segment bytes live and
// prices moving them over its own medium. Scheduling the simulated time
// is the swap pipeline's job, and shared control-LAN bandwidth is
// always charged through the xfer server.
type Tier struct {
	Kind TierKind
	// Capacity is the tier's byte budget (0 = unbounded). A Put past it
	// is refused: the segment spills to the shared pool instead.
	Capacity int64
	// Seek is the per-request positioning cost on the tier's medium.
	Seek sim.Time
	// Rate is the medium's sequential bandwidth in bytes/second (0: the
	// bytes ride the shared control-LAN pipe and are charged there).
	Rate int64
	// RTT is the per-request round trip to the tier.
	RTT sim.Time

	segs  map[Addr]int64
	bytes int64
}

// NewDiskTier creates a snapshot-disk tier with the given capacity
// (0 = DefaultSnapshotDiskBytes) and default seek/bandwidth costs.
func NewDiskTier(capacity int64) *Tier {
	if capacity <= 0 {
		capacity = DefaultSnapshotDiskBytes
	}
	return &Tier{Kind: DiskKind, Capacity: capacity, Seek: DefaultDiskSeek, Rate: DefaultDiskRate,
		segs: make(map[Addr]int64)}
}

// NewRemoteTier creates an unbounded shared-pool tier with the default
// round trip.
func NewRemoteTier() *Tier {
	return &Tier{Kind: RemoteKind, RTT: DefaultRemoteRTT, segs: make(map[Addr]int64)}
}

// ParseTier builds the tier a scenario file names: "disk" (a snapshot
// disk of diskBytes, 0 = default) or "remote". The empty string and
// "mem" name no tier (nil): chain contents stay metadata and every
// transfer rides the shared control-LAN pipe.
func ParseTier(name string, diskBytes int64) (*Tier, error) {
	switch name {
	case "", "mem":
		return nil, nil
	case "disk":
		return NewDiskTier(diskBytes), nil
	case "remote":
		return NewRemoteTier(), nil
	}
	return nil, fmt.Errorf("storage: unknown backend %q (want mem, disk or remote)", name)
}

// xferCost prices moving n bytes through a medium with a fixed
// per-request cost and a sequential rate (0 = no bandwidth term).
func xferCost(n int64, fixed sim.Time, rate int64) sim.Time {
	if n <= 0 {
		return 0
	}
	if rate <= 0 {
		return fixed
	}
	return fixed + sim.Time(float64(n)/float64(rate)*float64(sim.Second))
}

// Cost prices writing or reading n bytes on the tier's own medium:
// seek + bandwidth for the snapshot disk, the round trip for the pool
// (whose bandwidth rides the shared control-LAN pipe).
func (t *Tier) Cost(n int64) sim.Time { return xferCost(n, t.Seek+t.RTT, t.Rate) }

// Put records segment a (n bytes) as stored on the tier. A false
// return means the tier is over its capacity budget: the segment
// spills to the shared pool and restores must stream it back over the
// control LAN. Re-putting a resident segment only charges the size
// difference.
func (t *Tier) Put(a Addr, n int64) bool {
	occupied := t.bytes - t.segs[a]
	if t.Capacity > 0 && occupied+n > t.Capacity {
		return false
	}
	t.bytes = occupied + n
	t.segs[a] = n
	return true
}

// Fits reports whether n more bytes stay inside the capacity budget —
// the upfront placement decision.
func (t *Tier) Fits(n int64) bool { return t.Capacity <= 0 || t.bytes+n <= t.Capacity }

// Has reports whether the tier holds segment a.
func (t *Tier) Has(a Addr) bool { _, ok := t.segs[a]; return ok }

// Delete forgets a segment once its last chain reference is gone.
func (t *Tier) Delete(a Addr) {
	t.bytes -= t.segs[a]
	delete(t.segs, a)
}

// StoredBytes reports the tier's resident segment footprint.
func (t *Tier) StoredBytes() int64 { return t.bytes }

// SegmentCount reports how many segments are resident.
func (t *Tier) SegmentCount() int { return len(t.segs) }
