package transport

import (
	"sync"
	"time"

	"hyparview/internal/msg"
	"hyparview/internal/peer"
)

// tickDuration maps one peer.Scheduler tick onto the transport's real clock:
// one tick is one millisecond. The simulator's virtual ticks and the agent's
// wall clock therefore speak the same contract, and a protocol written
// against peer.Scheduler runs unchanged in both environments.
const tickDuration = time.Millisecond

// clockScheduler implements peer.Scheduler on the wall clock. Due messages
// are handed to deliver, which is responsible for dispatching them under the
// agent lock (and for honoring shutdown); once halt closes stop, periodic
// tasks end and a one-shot timer that fires later delivers nothing.
type clockScheduler struct {
	start   time.Time
	deliver func(msg.Message)
	stop    chan struct{}
	wg      sync.WaitGroup // periodic firing goroutines, for clean Close
}

var _ peer.Scheduler = (*clockScheduler)(nil)

// newClockScheduler starts the scheduler's epoch at the current instant.
func newClockScheduler(deliver func(msg.Message)) *clockScheduler {
	return &clockScheduler{start: time.Now(), deliver: deliver, stop: make(chan struct{})}
}

// Now implements peer.Scheduler: milliseconds since the scheduler's epoch,
// monotonic (time.Since uses the monotonic clock reading).
func (c *clockScheduler) Now() uint64 {
	return uint64(time.Since(c.start) / tickDuration)
}

// After implements peer.Scheduler: m is delivered to the local process once
// delay ticks of wall time have elapsed.
func (c *clockScheduler) After(delay uint64, m msg.Message) {
	time.AfterFunc(time.Duration(delay)*tickDuration, func() {
		select {
		case <-c.stop:
		default:
			c.deliver(m)
		}
	})
}

// Every implements peer.Scheduler: m is delivered every interval ticks until
// halt. A zero interval is clamped to one tick.
func (c *clockScheduler) Every(interval uint64, m msg.Message) {
	if interval == 0 {
		interval = 1
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(time.Duration(interval) * tickDuration)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.deliver(m)
			case <-c.stop:
				return
			}
		}
	}()
}

// halt stops the scheduler and waits until all periodic firing goroutines
// have exited. Call it once.
func (c *clockScheduler) halt() {
	close(c.stop)
	c.wg.Wait()
}
