package node

import (
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

// Params collects the calibration constants for one simulated machine.
// The defaults model the Emulab "pc3000" nodes used throughout the
// paper's evaluation (§7): Dell PowerEdge 2850, one 3.0 GHz Xeon, 2 GB
// RAM, two 146 GB 10,000 RPM SCSI disks, 1 Gbps experiment links and a
// 100 Mbps control network.
type Params struct {
	// Disk geometry and timing (10k RPM SCSI).
	DiskSeekAvg        sim.Time // average random seek
	DiskSeekTrack      sim.Time // adjacent-region seek
	DiskRotationalHalf sim.Time // half-rotation latency (10k RPM: 3 ms)
	DiskTransferBps    int64    // sequential media rate, bytes/second

	// Per-request fixed controller/DMA overhead.
	DiskOverhead sim.Time

	// Network interfaces.
	ExperimentLink simnet.Bitrate
	ControlLink    simnet.Bitrate

	// Guest configuration (§7: 6 GB disk image, 256 MB RAM, 32-bit FC4).
	GuestMemBytes  int64
	GuestDiskBytes int64
	PageSize       int

	// Scheduling-latency jitter applied to guest wakeups; calibrated so
	// 97% of sleep-loop iterations measure within 28 us (Fig. 4).
	WakeupJitterMean   sim.Time
	WakeupJitterStddev sim.Time

	// Firewall engage/disengage leak: the empirical transparency limit of
	// the local checkpoint, ~80 us at a checkpoint (Fig. 4 inset).
	FirewallLeakLo sim.Time
	FirewallLeakHi sim.Time

	// Xen paravirtual network path per-packet CPU costs. The Xen net
	// path is CPU-bound under load (Cherkasova 2005, Santos 2008, cited
	// in §4.4); these costs are what make dom0 interference visible as
	// the small post-checkpoint throughput dips of Figs. 6 and 7.
	XenNetTxCost sim.Time
	XenNetRxCost sim.Time

	// Device quiesce/reconnect costs on the checkpoint path (§3.1:
	// "during a checkpoint the virtual machine has to shutdown its
	// devices... when resumed, the devices have to be reconnected").
	DeviceQuiesce   sim.Time
	DeviceReconnect sim.Time
}

// DefaultParams returns the pc3000 calibration.
func DefaultParams() Params {
	return Params{
		DiskSeekAvg:        4500 * sim.Microsecond,
		DiskSeekTrack:      800 * sim.Microsecond,
		DiskRotationalHalf: 3 * sim.Millisecond,
		DiskTransferBps:    72 << 20, // 72 MB/s media rate
		DiskOverhead:       120 * sim.Microsecond,
		ExperimentLink:     simnet.Gbps,
		ControlLink:        100 * simnet.Mbps,
		GuestMemBytes:      256 << 20,
		GuestDiskBytes:     6 << 30,
		PageSize:           4096,
		WakeupJitterMean:   12 * sim.Microsecond,
		WakeupJitterStddev: 7 * sim.Microsecond,
		FirewallLeakLo:     55 * sim.Microsecond,
		FirewallLeakHi:     90 * sim.Microsecond,
		XenNetTxCost:       11 * sim.Microsecond,
		XenNetRxCost:       16 * sim.Microsecond,
		DeviceQuiesce:      2 * sim.Millisecond,
		DeviceReconnect:    1500 * sim.Microsecond,
	}
}
