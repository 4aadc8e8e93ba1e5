package transport

import (
	"sync/atomic"
	"testing"
	"time"
)

// gate lets a test wait on agent callbacks instead of sleeping: callbacks
// count their events through hit, from any goroutine, and the test
// goroutine blocks until a condition over those counts holds, re-checking
// it after every event — a countdown gate.
type gate struct{ wake chan struct{} }

func newGate() *gate { return &gate{wake: make(chan struct{}, 1)} }

// hit counts one event on c and wakes the waiter.
func (g *gate) hit(c *atomic.Int64) {
	c.Add(1)
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// wait blocks until cond holds or timeout passes, and reports which came
// first. cond may change only with a hit; an agent's view counts, read under
// the agent lock its neighbor callbacks fire under.
func (g *gate) wait(timeout time.Duration, cond func() bool) bool {
	deadline := time.After(timeout)
	for !cond() {
		select {
		case <-g.wake:
		case <-deadline:
			return false
		}
	}
	return true
}

// await fails the test unless c reaches want within timeout.
func (g *gate) await(t *testing.T, what string, c *atomic.Int64, want int64, timeout time.Duration) {
	t.Helper()
	if !g.wait(timeout, func() bool { return c.Load() >= want }) {
		t.Fatalf("%s: %d of %d after %v", what, c.Load(), want, timeout)
	}
}
