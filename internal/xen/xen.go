// Package xen models the hypervisor side of the checkpoint (paper §4):
// a paravirtualized domain per node, XenBus signalling between dom0 and
// the guest, and a live checkpoint extended from Xen's live migration —
// iterative pre-copy rounds over the dirty-page log while the guest
// runs, then a stop-and-copy of the residual dirty set and device state
// while the temporal firewall conceals the downtime.
//
// The background phases are not free: copying burns dom0 CPU (a share of
// the physical core) and scratch-disk bandwidth, which is exactly the
// residual interference the paper measures in Figs. 5 and 6. Even
// trivial dom0 commands perturb a CPU-bound guest; Dom0Job models that
// directly (§7.1: ls 5–7 ms, sum 13–17 ms, xm list 130 ms).
package xen

import (
	"fmt"

	"emucheck/internal/guest"
	"emucheck/internal/node"
	"emucheck/internal/sim"
	"emucheck/internal/vclock"
)

// XenBusLatency is the dom0->guest signalling latency for suspend
// requests and watch events.
const XenBusLatency = 200 * sim.Microsecond

// SaveTarget selects where the checkpoint image is written.
type SaveTarget int

// Save targets.
const (
	// ToScratchDisk writes the image to the node's second local disk,
	// the time-travel snapshot store (§6).
	ToScratchDisk SaveTarget = iota
	// ToControlNet streams the image over the 100 Mbps control network
	// to the Emulab file server (stateful swap-out, §7.2).
	ToControlNet
)

// SaveOptions tunes one live checkpoint.
type SaveOptions struct {
	Target SaveTarget

	// SuspendAt is the absolute (node-local) time to engage the
	// firewall. Zero means "as soon as pre-copy converges or
	// maxPrecopyRounds is reached" (event-driven checkpoint).
	SuspendAt sim.Time

	// Incremental restricts the first round to pages dirtied since the
	// previous checkpoint instead of the full resident set — how the
	// time-travel system affords frequent checkpointing.
	Incremental bool

	// OnError, if set, is notified when an accepted save fails later
	// (e.g. the suspend raced something that had already frozen the
	// guest); done never fires for such a save. Without the hook the
	// failure would be silent and a barrier waiting on this member
	// could only be cleared by a save deadline.
	OnError func(error)
}

// Live-save pre-copy tuning.
const (
	// maxPrecopyRounds bounds pre-copy iterations.
	maxPrecopyRounds = 4
	// precopyThresholdPages stops pre-copy once the dirty set is this
	// small.
	precopyThresholdPages = 128
	// dom0CPUShare is the CPU fraction the copy engine consumes while
	// the guest runs.
	dom0CPUShare = 0.12
)

// Image is a saved domain checkpoint.
type Image struct {
	Node        string
	MemoryBytes int64 // pages written across all rounds
	DeviceBytes int64
	Clock       *vclock.State

	Rounds        int
	Downtime      sim.Time // real time from engage to disengage-eligible
	SuspendedAt   sim.Time // real time the firewall engaged
	CompletedAt   sim.Time
	StopCopyPages int
}

// Hypervisor manages the one guest domain of a machine.
type Hypervisor struct {
	M *node.Machine
	P node.Params
	K *guest.Kernel

	saving      bool
	cancelled   bool  // abort requested for the in-flight save
	crashed     bool  // machine fail-stopped
	stagedBytes int64 // image bytes staged in dom0, awaiting write-back

	// CopyRateMem is the RAM-to-RAM rate at which the save engine walks
	// and copies pages into a dom0 staging buffer; scratch-disk targets
	// copy at this rate and write the image back in the background, the
	// way Remus-derived live checkpointing behaves. CopyRateNet gates
	// control-network targets (swap), where the transfer itself is the
	// bottleneck and the guest stays frozen until state is off-node.
	CopyRateMem int64
	CopyRateNet int64

	// Saves counts completed checkpoints.
	Saves int
}

// New creates a hypervisor hosting kernel k on machine m.
func New(m *node.Machine, p node.Params, k *guest.Kernel) *Hypervisor {
	return &Hypervisor{
		M: m, P: p, K: k,
		CopyRateMem: 700 << 20, // RAM-to-RAM staging
		CopyRateNet: int64(p.ControlLink) / 8,
	}
}

func (h *Hypervisor) rate(t SaveTarget) int64 {
	if t == ToControlNet {
		return h.CopyRateNet
	}
	return h.CopyRateMem
}

// copyOut models moving n bytes of checkpoint state: it takes n/rate
// seconds and steals share of the CPU. Scratch-disk targets stage the
// image in dom0 memory at CopyRateMem and write it back asynchronously
// — the disk traffic and write-back CPU land after fn, which is the
// residual background interference Fig. 5/6 observe.
func (h *Hypervisor) copyOut(n int64, o SaveOptions, fn func()) {
	if n <= 0 {
		h.M.Sim.DoAfter(0, "xen.copy0", fn)
		return
	}
	d := sim.Time(float64(n) / float64(h.rate(o.Target)) * float64(sim.Second))
	h.M.CPU.Steal(h.M.Sim.Now(), d, dom0CPUShare)
	h.K.FW.Replan()
	if o.Target == ToScratchDisk {
		// Staged in dom0 memory; written back once, after resume.
		h.stagedBytes += n
	}
	h.M.Sim.DoAfter(d, "xen.copy", fn)
}

// Dom0Job models an operator command in the privileged domain: it steals
// the CPU share for the duration, perturbing the guest (§7.1's ls / sum /
// xm list experiment).
func (h *Hypervisor) Dom0Job(dur sim.Time, share float64) {
	h.M.CPU.Steal(h.M.Sim.Now(), dur, share)
	h.K.FW.Replan()
}

// Saving reports whether a live save is in flight.
func (h *Hypervisor) Saving() bool { return h.saving && !h.crashed }

// Crashed reports whether the machine has fail-stopped.
func (h *Hypervisor) Crashed() bool { return h.crashed }

// CancelSave aborts an in-flight save — the coordinator's epoch-abort
// path. The save machinery observes the flag at its next step, cleans
// up, and resumes the guest if the save had already frozen it; the
// save's done callback never fires. A no-op without a save in flight.
func (h *Hypervisor) CancelSave() {
	if h.saving && !h.crashed {
		h.cancelled = true
	}
}

// Crash fail-stops the machine: the guest freezes where it stands (its
// temporal firewall engages and nothing on this incarnation ever
// disengages it), an in-flight save is abandoned without completing,
// and Save/Resume refuse service until Restore. This is the fault
// layer's node-death primitive.
func (h *Hypervisor) Crash() {
	if h.crashed {
		return
	}
	h.crashed = true
	h.K.Crash()
}

// Restore revives a crashed node after its state has been re-staged
// from the last committed checkpoint epoch: the crash flag clears and
// the guest resumes. The transfer cost of re-staging is the caller's
// business (swap.Manager.Recover charges it).
func (h *Hypervisor) Restore(fn func()) error {
	if !h.crashed {
		return fmt.Errorf("xen: %s is not crashed", h.M.Name)
	}
	h.crashed = false
	h.saving = false
	h.cancelled = false
	h.K.Revive()
	return h.Resume(fn)
}

// endCancel finishes an aborted save: clear the machinery and thaw the
// guest if the save had frozen it.
func (h *Hypervisor) endCancel() {
	h.saving = false
	h.cancelled = false
	if h.K.Suspended() {
		_ = h.Resume(nil)
	}
}

// Save performs a live checkpoint and calls done with the image while
// the guest is still suspended — the caller (the distributed
// coordinator) decides when to Resume, after the cross-node barrier.
func (h *Hypervisor) Save(o SaveOptions, done func(*Image)) error {
	if h.crashed {
		return fmt.Errorf("xen: %s has crashed", h.M.Name)
	}
	if h.saving {
		return fmt.Errorf("xen: save already in progress on %s", h.M.Name)
	}
	h.saving = true
	h.cancelled = false
	img := &Image{Node: h.M.Name}
	h.preCopyRound(o, img, 1, done)
	return nil
}

func (h *Hypervisor) preCopyRound(o SaveOptions, img *Image, round int, done func(*Image)) {
	if h.crashed {
		return // the machine died mid-save; the image is lost
	}
	if h.cancelled {
		h.endCancel()
		return
	}
	now := h.M.Sim.Now()
	// A scheduled suspend takes priority over convergence.
	if o.SuspendAt > 0 && now >= o.SuspendAt {
		h.suspendAndCopy(o, img, done)
		return
	}
	h.K.AccrueBackgroundDirty()
	var pages int
	if round == 1 && !o.Incremental {
		// The first round of a full save copies the whole resident set;
		// the dirty log restarts from zero behind it.
		pages = h.K.Dirty.Resident
		h.K.Dirty.TakeDirty()
	} else {
		pages = h.K.Dirty.TakeDirty()
	}
	if o.SuspendAt == 0 && (pages <= precopyThresholdPages || round > maxPrecopyRounds) {
		// Event-driven save: converged (or gave up) — the final set is
		// handled by stop-and-copy.
		h.K.Dirty.ForceDirty(pages)
		h.suspendAndCopy(o, img, done)
		return
	}
	if pages == 0 {
		// Scheduled suspend with a clean dirty log: idle until the
		// deadline (or re-poll), accruing background dirtying.
		wait := o.SuspendAt - now
		if wait > 100*sim.Millisecond {
			wait = 100 * sim.Millisecond
		}
		h.M.Sim.DoAfter(wait, "xen.precopy-idle", func() {
			h.preCopyRound(o, img, round, done)
		})
		return
	}
	bytes := int64(pages) * int64(h.P.PageSize)
	copyDur := sim.Time(float64(bytes) / float64(h.rate(o.Target)) * float64(sim.Second))
	if o.SuspendAt > 0 && now+copyDur > o.SuspendAt {
		// Cap the round at the deadline; pages we cannot copy in time
		// stay dirty for the stop-and-copy phase.
		copyDur = o.SuspendAt - now
		copied := int64(float64(copyDur) / float64(sim.Second) * float64(h.rate(o.Target)))
		if copied < int64(h.P.PageSize) {
			// Not even one page fits before the deadline: put everything
			// back and sleep straight through to the suspend.
			h.K.Dirty.ForceDirty(pages)
			h.M.Sim.DoAfter(copyDur, "xen.precopy-deadline", func() {
				h.preCopyRound(o, img, round, done)
			})
			return
		}
		uncopied := int((bytes - copied) / int64(h.P.PageSize))
		h.K.Dirty.ForceDirty(uncopied)
		bytes = copied
	}
	img.Rounds = round
	img.MemoryBytes += bytes
	h.copyOut(bytes, o, func() {
		h.preCopyRound(o, img, round+1, done)
	})
}

// suspendAndCopy engages the firewall (via the XenBus suspend request),
// drains devices, copies the residual dirty set and device state, and
// hands the image to the caller with the guest still frozen.
func (h *Hypervisor) suspendAndCopy(o SaveOptions, img *Image, done func(*Image)) {
	h.M.Sim.DoAfter(XenBusLatency, "xenbus.suspend", func() {
		if h.crashed {
			return
		}
		if h.cancelled {
			h.endCancel()
			return
		}
		suspendStart := h.M.Sim.Now()
		err := h.K.Suspend(func() {
			if h.crashed {
				return // died frozen; recovery owns the guest now
			}
			if h.cancelled {
				h.endCancel()
				return
			}
			img.SuspendedAt = suspendStart
			h.K.AccrueBackgroundDirty()
			residual := h.K.Dirty.TakeDirty()
			img.StopCopyPages = residual
			stopBytes := int64(residual) * int64(h.P.PageSize)
			devBytes := int64(192 << 10) // front-end rings, grant state
			img.DeviceBytes = devBytes
			img.MemoryBytes += stopBytes
			h.copyOut(stopBytes+devBytes, o, func() {
				if h.crashed {
					return
				}
				if h.cancelled {
					h.endCancel()
					return
				}
				st, serr := h.K.Clock.Serialize()
				if serr != nil {
					panic("xen: clock not frozen during save: " + serr.Error())
				}
				img.Clock = st
				img.Downtime = h.M.Sim.Now() - suspendStart
				img.CompletedAt = h.M.Sim.Now()
				h.Saves++
				h.saving = false
				done(img)
			})
		})
		if err != nil {
			// The suspend raced something that already froze the guest (a
			// crash, a parallel freeze): abandon this save cleanly and
			// report the failure so the caller's epoch can abort instead
			// of waiting on a barrier arrival that will never come.
			h.saving = false
			h.cancelled = false
			if o.OnError != nil {
				o.OnError(err)
			}
		}
	})
}

// Resume restarts the guest after a Save. The staged image is written
// back to the scratch disk in the background, stealing a slice of dom0
// CPU and the spindle — the residual interference visible in Fig. 5.
func (h *Hypervisor) Resume(fn func()) error {
	if h.crashed {
		return fmt.Errorf("xen: %s has crashed", h.M.Name)
	}
	err := h.K.Resume(func() {
		h.M.CPU.Steal(h.M.Sim.Now(), 90*sim.Millisecond, 0.10)
		if h.stagedBytes > 0 {
			writeback := sim.Time(float64(h.stagedBytes) / float64(58<<20) * float64(sim.Second))
			h.M.CPU.Steal(h.M.Sim.Now(), writeback, 0.04)
			h.M.Scratch.Submit(&node.DiskRequest{Op: node.Write, LBA: 0, Bytes: h.stagedBytes, Done: nil})
			h.stagedBytes = 0
		}
		h.K.FW.Replan()
		if fn != nil {
			fn()
		}
	})
	return err
}
