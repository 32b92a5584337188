package node

import (
	"fmt"

	"emucheck/internal/sim"
)

// DiskOp distinguishes request types.
type DiskOp int

// Disk operations.
const (
	Read DiskOp = iota
	Write
)

func (op DiskOp) String() string {
	if op == Read {
		return "read"
	}
	return "write"
}

// DiskRequest is one I/O submitted to the disk queue. Submit copies
// it, so a caller may build it on the stack or reuse one for every I/O.
type DiskRequest struct {
	Op     DiskOp
	LBA    int64 // logical block address in bytes
	Bytes  int64
	Done   func()
	issued sim.Time
}

// Disk models one 10k RPM SCSI disk with a FIFO queue and a
// seek + rotation + transfer service time. Sequential accesses (request
// starting where the previous one ended) skip the positioning cost,
// which is what gives the branching store its locality-sensitivity
// (paper §5.3: merged deltas are reordered to restore locality).
type Disk struct {
	s *sim.Simulator
	p Params

	queue   sim.FIFO[DiskRequest]
	cur     DiskRequest // the request in service while active
	io      sim.Timer   // fires when cur completes
	active  bool
	headPos int64 // byte position after last transfer

	// Throttle expresses bandwidth given up to rate-limited background
	// work (LVM mirror synchronization, §5.3); 0 = none, 0.5 = half.
	throttle float64

	waiters []func()

	// Statistics.
	ReadBytes    int64
	WriteBytes   int64
	ReadOps      int64
	WriteOps     int64
	BusyTime     sim.Time
	SeekOps      int64
	TotalLatency sim.Time
}

// NewDisk creates an idle disk.
func NewDisk(s *sim.Simulator, p Params) *Disk {
	d := &Disk{s: s, p: p}
	s.InitTimer(&d.io, "disk.io", d.complete)
	return d
}

// QueueLen reports outstanding requests, including the active one.
func (d *Disk) QueueLen() int {
	n := d.queue.Len()
	if d.active {
		n++
	}
	return n
}

// SetThrottle diverts the given fraction of disk bandwidth away from the
// request stream (to model competing background transfers sharing the
// spindle). Values are clamped to [0, 0.9].
func (d *Disk) SetThrottle(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 0.9 {
		f = 0.9
	}
	d.throttle = f
}

// Submit queues a copy of r. Done fires when the transfer completes.
func (d *Disk) Submit(r *DiskRequest) {
	if r.Bytes <= 0 {
		panic(fmt.Sprintf("disk: empty %s request", r.Op))
	}
	q := *r
	q.issued = d.s.Now()
	d.queue.Push(q)
	if !d.active {
		d.startNext()
	}
}

// ServiceTime reports how long a request at lba/bytes takes given the
// current head position; exported for capacity planning in tests.
func (d *Disk) ServiceTime(lba, bytes int64) sim.Time {
	t := d.p.DiskOverhead
	if lba != d.headPos {
		dist := lba - d.headPos
		if dist < 0 {
			dist = -dist
		}
		// Short hops cost a track seek; long hops the average seek.
		if dist <= 64<<20 {
			t += d.p.DiskSeekTrack
		} else {
			t += d.p.DiskSeekAvg
		}
		t += d.p.DiskRotationalHalf
		d.SeekOps++
	}
	rate := float64(d.p.DiskTransferBps) * (1 - d.throttle)
	t += sim.Time(float64(bytes) / rate * float64(sim.Second))
	return t
}

func (d *Disk) startNext() {
	if d.queue.Len() == 0 {
		d.active = false
		return
	}
	d.active = true
	d.cur = d.queue.Pop()
	svc := d.ServiceTime(d.cur.LBA, d.cur.Bytes)
	d.BusyTime += svc
	d.io.Reset(svc)
}

// complete finishes the request in service and starts the next.
func (d *Disk) complete() {
	r := d.cur
	d.cur = DiskRequest{}
	d.headPos = r.LBA + r.Bytes
	if r.Op == Read {
		d.ReadBytes += r.Bytes
		d.ReadOps++
	} else {
		d.WriteBytes += r.Bytes
		d.WriteOps++
	}
	d.TotalLatency += d.s.Now() - r.issued
	if r.Done != nil {
		r.Done()
	}
	d.startNext()
	if !d.active && len(d.waiters) > 0 {
		ws := d.waiters
		d.waiters = nil
		for _, w := range ws {
			w()
		}
	}
}

// Drain invokes fn once all in-flight requests have completed. This is
// the paper's "block device drivers need their IRQ handlers to run
// outside of the firewall in order to drain in-flight requests" (§4.1):
// the checkpoint waits for the disk to go quiet before sealing device
// state. Requests submitted after Drain delay the notification further;
// checkpointing guests stop submitting before draining.
func (d *Disk) Drain(fn func()) {
	if !d.active && d.queue.Len() == 0 {
		d.s.DoAfter(0, "disk.drain", fn)
		return
	}
	d.waiters = append(d.waiters, fn)
}
