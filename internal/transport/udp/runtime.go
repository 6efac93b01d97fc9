package udp

import (
	"errors"
	"net"
	"net/netip"
	"time"

	"tango/internal/sim"
)

// maxIdle caps how long the run loop sleeps with nothing scheduled, so a
// quiet endpoint's clock never falls far behind the wall.
const maxIdle = 50 * time.Millisecond

// Start launches the wall-clock runtime: the run loop that fires
// scheduled events when their instant arrives in real time, and the read
// loop that serializes socket receptions onto the event world.
func (b *Backend) Start() {
	b.wg.Add(2)
	go b.runLoop()
	go b.readLoop()
}

// Close shuts the backend down: the socket closes (unblocking the read
// loop), the run loop exits, and Close returns once both are done.
// Pending scheduled events are dropped, releasing any buffers they carry
// through the engine's cancel path is unnecessary — the process is going
// away; tests that care about lease balance drain first via Do.
func (b *Backend) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	err := b.conn.Close()
	b.poke()
	b.wg.Wait()
	return err
}

// Do runs fn on the event world: the engine is first advanced to the
// current wall instant (so fn observes fresh Now/Clock readings), fn
// runs with the event lock held, and the run loop is poked so anything
// fn scheduled is considered for the next sleep. This is how goroutines
// outside the runtime — main, tests, HTTP handlers — interact with the
// stack. The lock is released and the run loop poked on every way out,
// so a panic in fn reaches the caller with the backend still usable
// (a deferred Close there would otherwise wait on the lock forever).
func (b *Backend) Do(fn func()) {
	b.mu.Lock()
	defer func() {
		b.mu.Unlock()
		b.poke()
	}()
	b.advanceLocked()
	fn()
}

// advanceLocked runs the engine up to the current wall instant. mu held.
func (b *Backend) advanceLocked() {
	b.eng.Run(sim.Time(time.Since(b.start)))
}

// poke nudges the run loop to recompute its sleep.
func (b *Backend) poke() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// runLoop is the wall-clock analogue of Network.Run: it advances the
// engine whenever the wall clock catches up with the earliest scheduled
// event, sleeping precisely until then (bounded by maxIdle so the
// engine's notion of now tracks the wall even when idle).
func (b *Backend) runLoop() {
	defer b.wg.Done()
	timer := time.NewTimer(maxIdle)
	defer timer.Stop()
	for {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return
		}
		b.advanceLocked()
		next, ok := b.eng.NextAt()
		b.mu.Unlock()

		d := maxIdle
		if ok {
			if until := time.Until(b.start.Add(time.Duration(next))); until < d {
				d = until
			}
			if d < 0 {
				d = 0
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d)
		select {
		case <-b.wake:
		case <-timer.C:
		}
	}
}

// readLoop pulls datagrams off the socket and hands each to the event
// world under the lock, advancing the clock first so handlers observe a
// fresh now — the moral equivalent of a link's delivery event firing at
// its arrival instant.
func (b *Backend) readLoop() {
	defer b.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := b.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			b.mu.Lock()
			closed := b.closed
			b.mu.Unlock()
			if closed {
				return
			}
			continue // transient (e.g. ICMP port unreachable surfaced as an error)
		}
		// Normalize 4-in-6 mapped sources so addresses learned from
		// arriving datagrams compare equal to configured ones and write
		// back through an IPv4-bound socket.
		from = netip.AddrPortFrom(from.Addr().Unmap(), from.Port())
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return
		}
		b.advanceLocked()
		b.deliver(from, buf[:n])
		b.mu.Unlock()
		b.poke()
	}
}
