package core

import (
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/rng"
)

// eventLog records membership events and mirrors them into a set so tests
// can compare against the node's actual active view.
type eventLog struct {
	ups     []id.ID
	downs   []id.ID
	reasons []DownReason
	current map[id.ID]bool
}

func newEventLog() *eventLog {
	return &eventLog{current: make(map[id.ID]bool)}
}

func (l *eventLog) listener() Listener {
	return Listener{
		NeighborUp: func(p id.ID) {
			l.ups = append(l.ups, p)
			l.current[p] = true
		},
		NeighborDown: func(p id.ID, r DownReason) {
			l.downs = append(l.downs, p)
			l.reasons = append(l.reasons, r)
			delete(l.current, p)
		},
	}
}

func TestListenerUpOnJoinAccept(t *testing.T) {
	n, _ := newTestNode(1)
	log := newEventLog()
	n.SetListener(log.listener())
	n.Deliver(10, &msg.Message{Type: msg.Neighbor, Sender: 10, Priority: msg.HighPriority})
	if len(log.ups) != 1 || log.ups[0] != 10 {
		t.Errorf("ups = %v, want [n10]", log.ups)
	}
}

func TestListenerDownReasons(t *testing.T) {
	n, _ := newTestNode(1)
	log := newEventLog()
	n.SetListener(log.listener())

	// Fill the view, then evict via a high-priority request.
	for i := id.ID(10); i < id.ID(10+uint64(n.Config().ActiveSize)); i++ {
		n.Deliver(i, &msg.Message{Type: msg.Neighbor, Sender: i, Priority: msg.HighPriority})
	}
	n.Deliver(99, &msg.Message{Type: msg.Neighbor, Sender: 99, Priority: msg.HighPriority})
	if len(log.downs) != 1 || log.reasons[0] != DownEvicted {
		t.Fatalf("downs=%v reasons=%v, want one eviction", log.downs, log.reasons)
	}

	// Failure detection.
	n.OnPeerDown(99)
	if log.reasons[len(log.reasons)-1] != DownFailed {
		t.Errorf("last reason = %v, want failed", log.reasons[len(log.reasons)-1])
	}

	// DISCONNECT.
	survivor := n.Active()[0]
	n.Deliver(survivor, &msg.Message{Type: msg.Disconnect, Sender: survivor})
	if log.reasons[len(log.reasons)-1] != DownDisconnected {
		t.Errorf("last reason = %v, want disconnected", log.reasons[len(log.reasons)-1])
	}
}

func TestListenerMirrorsActiveView(t *testing.T) {
	// Fuzz the node; after every step the listener's mirrored set must
	// exactly equal the active view.
	n, env := newTestNode(1)
	log := newEventLog()
	n.SetListener(log.listener())
	r := rng.New(3)
	types := []msg.Type{msg.Join, msg.ForwardJoin, msg.Disconnect, msg.Neighbor,
		msg.NeighborReply, msg.Shuffle, msg.ShuffleReply}
	for i := 0; i < 3000; i++ {
		from := id.ID(r.Intn(30) + 2)
		m := msg.Message{
			Type:     types[r.Intn(len(types))],
			Sender:   from,
			Subject:  id.ID(r.Intn(30) + 2),
			TTL:      uint8(r.Intn(8)),
			Priority: msg.Priority(r.Intn(2) + 1),
			Accept:   r.Bool(),
		}
		if r.Intn(10) == 0 {
			env.down[id.ID(r.Intn(30)+2)] = r.Bool()
		}
		if r.Intn(20) == 0 {
			n.OnPeerDown(id.ID(r.Intn(30) + 2))
		}
		n.Deliver(from, &m)
		env.take()

		active := n.Active()
		if len(active) != len(log.current) {
			t.Fatalf("step %d: view size %d, mirror size %d", i, len(active), len(log.current))
		}
		for _, a := range active {
			if !log.current[a] {
				t.Fatalf("step %d: %v in view but mirror missed it", i, a)
			}
		}
	}
}

func TestDownReasonString(t *testing.T) {
	tests := map[DownReason]string{
		DownFailed:       "failed",
		DownDisconnected: "disconnected",
		DownEvicted:      "evicted",
		DownReason(99):   "unknown",
	}
	for r, want := range tests {
		if got := r.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
