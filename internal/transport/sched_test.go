package transport

import (
	"sync"
	"testing"
	"time"

	"hyparview/internal/msg"
	"hyparview/internal/peer/peertest"
)

// The agent's real-clock scheduler must pass the same conformance suite as
// the simulator's virtual-time Endpoint (one tick = 1ms here): the shared
// suite is what lets a protocol written against peer.Scheduler run unchanged
// in both environments.
func TestSchedulerConformance(t *testing.T) {
	peertest.Conformance(t, func(t *testing.T) *peertest.Instance {
		var mu sync.Mutex
		var got []msg.Message
		cs := newClockScheduler(func(m msg.Message) {
			mu.Lock()
			got = append(got, m)
			mu.Unlock()
		})
		t.Cleanup(cs.halt)
		return &peertest.Instance{
			Sched: cs,
			Run: func(d uint64) {
				// Wall clock: sleep past the window plus generous slack so a
				// loaded CI box still sees every due firing.
				time.Sleep(time.Duration(d)*tickDuration + 150*time.Millisecond)
			},
			Delivered: func() []msg.Message {
				mu.Lock()
				defer mu.Unlock()
				return append([]msg.Message(nil), got...)
			},
			Real: true,
		}
	})
}

// TestClockSchedulerStopsPeriodic verifies Every goroutines exit on halt and
// deliver nothing afterwards.
func TestClockSchedulerStopsPeriodic(t *testing.T) {
	var mu sync.Mutex
	count := 0
	cs := newClockScheduler(func(msg.Message) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	cs.Every(10, msg.Message{Type: msg.Tick})
	time.Sleep(60 * time.Millisecond)
	cs.halt()
	mu.Lock()
	atStop := count
	mu.Unlock()
	if atStop == 0 {
		t.Fatal("periodic task never fired")
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	after := count
	mu.Unlock()
	if after != atStop {
		t.Errorf("periodic fired after stop: %d -> %d", atStop, after)
	}
}
