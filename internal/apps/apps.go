// Package apps contains the guest workloads the paper's evaluation runs
// (§7): the usleep and CPU-burn microbenchmarks, iperf, BitTorrent, a
// Bonnie++-style disk benchmark, and the large-file-copy workload used
// to measure background-transfer interference. Each app drives a guest
// kernel through its public services and records measurements in guest
// *virtual* time — exactly what an in-experiment observer would see.
package apps

import (
	"emucheck/internal/firewall"
	"emucheck/internal/guest"
	"emucheck/internal/metrics"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
	"emucheck/internal/tcpsim"
)

// SleepLoop is the Fig. 4 microbenchmark: usleep(10 ms) in a loop,
// measuring each iteration with gettimeofday. At HZ=100 an iteration
// measures 20 ms; transparency bounds the checkpoint-induced error.
type SleepLoop struct {
	K     *guest.Kernel
	Sleep sim.Time
	Iters int

	// Times holds per-iteration durations (virtual µs-resolution).
	Times *metrics.Series

	done func()
	prev sim.Time
	n    int
}

// NewSleepLoop builds the benchmark with the paper's 10 ms parameter.
func NewSleepLoop(k *guest.Kernel, iters int) *SleepLoop {
	return &SleepLoop{K: k, Sleep: 10 * sim.Millisecond, Iters: iters, Times: metrics.NewSeries(k.Name + ".sleeploop")}
}

// Run starts the loop; done fires after the last iteration.
func (a *SleepLoop) Run(done func()) {
	a.done = done
	a.prev = a.K.Gettimeofday()
	a.step()
}

func (a *SleepLoop) step() {
	a.K.Usleep(a.Sleep, func() {
		now := a.K.Gettimeofday()
		a.Times.Add(now, float64(now-a.prev))
		a.prev = now
		a.n++
		if a.n < a.Iters {
			a.step()
			return
		}
		if a.done != nil {
			a.done()
		}
	})
}

// CPULoop is the Fig. 5 microbenchmark: a fixed CPU-bound job per
// iteration, measured in virtual time. The paper's job takes 236.6 ms
// unperturbed.
type CPULoop struct {
	K     *guest.Kernel
	Work  sim.Time
	Iters int

	Times *metrics.Series

	done func()
	n    int
}

// NewCPULoop builds the benchmark with the paper's job size.
func NewCPULoop(k *guest.Kernel, iters int) *CPULoop {
	return &CPULoop{K: k, Work: 236600 * sim.Microsecond, Iters: iters, Times: metrics.NewSeries(k.Name + ".cpuloop")}
}

// Run starts the loop.
func (a *CPULoop) Run(done func()) {
	a.done = done
	a.step()
}

func (a *CPULoop) step() {
	start := a.K.Gettimeofday()
	a.K.Compute(a.Work, "cpuloop", func() {
		now := a.K.Gettimeofday()
		a.Times.Add(now, float64(now-start))
		a.n++
		if a.n < a.Iters {
			a.step()
			return
		}
		if a.done != nil {
			a.done()
		}
	})
}

// tcpEnv adapts a guest kernel to tcpsim.Env for one direction of a
// connection. Both directions share one pool, data segments flowing one
// way and ACKs the other, so it never holds more than the peak in
// flight: about one receive window and its ACKs. Neither tcpsim nor the
// apps keep a segment past its handler's return.
type tcpEnv struct {
	k    *guest.Kernel
	peer simnet.Addr
	port string
	pool *guest.Pool[tcpsim.Segment]
}

func (e *tcpEnv) Now() sim.Time { return e.k.Monotonic() }

func (e *tcpEnv) NewTimer(name string, fn func()) tcpsim.Timer {
	return e.k.FW.NewTimer(firewall.TimerJob, name, fn)
}

// Output sends seg in a carrier from the connection's pool.
func (e *tcpEnv) Output(seg tcpsim.Segment) {
	e.pool.Send(e.k, e.peer, seg.WireSize(), e.port, seg)
}

// SegmentOf returns the TCP segment m carries, or nil when m is not a
// segment of an iperf or BitTorrent connection.
func SegmentOf(m *guest.Message) *tcpsim.Segment { return guest.PayloadOf[tcpsim.Segment](m) }
