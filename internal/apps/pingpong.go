package apps

import (
	"emucheck/internal/guest"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

// PingPong is a paced RPC pair: a sends "ping" to b, b answers "pong",
// and a sends the next ping period of its virtual time after each
// pong. Every ping carries its round number and its pong echoes it.
type PingPong struct {
	// Rounds counts the pongs a has received.
	Rounds int

	a      *guest.Kernel
	bAddr  simnet.Addr
	period sim.Time
	onPong func(round int)
	send   func() // the next ping, bound once
	pool   guest.Pool[int]
}

// RunPingPong registers the two ports and sends the first ping. onPong,
// if non-nil, observes each pong's round.
func RunPingPong(a, b *guest.Kernel, aAddr, bAddr simnet.Addr, period sim.Time, onPong func(round int)) *PingPong {
	pp := &PingPong{a: a, bAddr: bAddr, period: period, onPong: onPong}
	pp.send = pp.ping
	b.Handle("ping", pp.pool.Handler(func(_ simnet.Addr, round *int) {
		pp.pool.Send(b, aAddr, 200, "pong", *round)
	}))
	a.Handle("pong", pp.pool.Handler(func(_ simnet.Addr, round *int) {
		pp.Rounds++
		if pp.onPong != nil {
			pp.onPong(*round)
		}
		a.Usleep(pp.period, pp.send)
	}))
	pp.send()
	return pp
}

func (pp *PingPong) ping() { pp.pool.Send(pp.a, pp.bAddr, 200, "ping", pp.Rounds+1) }
