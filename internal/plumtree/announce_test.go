package plumtree

import (
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
)

// A newly formed eager link re-announces the last delivered round. Without
// it, a node that gained the link while a round was in flight (view repair
// during a partition, a freshly admitted replacement) never learns of that
// round — announcements are otherwise sent exactly once, at delivery time,
// over the links that existed then — and stays permanently deprived. The
// adversarial partition-heal-mid-broadcast scenario found this; these tests
// pin the fix.

func TestNewEagerLinkGetsLastRoundAnnouncement(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2}}
	n := New(env, mem, Config{}, nil)
	n.Broadcast(7, []byte("x"))
	env.sent = nil

	mem.neighbors = []id.ID{2, 4}
	n.OnCycle()
	ihaves := env.sentOfType(msg.PlumtreeIHave)
	if len(ihaves) != 1 {
		t.Fatalf("IHAVEs on reconcile = %d, want 1 (to the new link only)", len(ihaves))
	}
	if ihaves[0].to != 4 || ihaves[0].m.Round != 7 {
		t.Errorf("announcement = round %d to %v, want round 7 to n4", ihaves[0].m.Round, ihaves[0].to)
	}
	if ihaves[0].m.Payload != nil {
		t.Error("announcement carries a payload; it must be IHAVE-sized")
	}
}

func TestNoAnnouncementBeforeFirstDelivery(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2}}
	n := New(env, mem, Config{}, nil)

	mem.neighbors = []id.ID{2, 4}
	n.OnCycle()
	if got := len(env.sentOfType(msg.PlumtreeIHave)); got != 0 {
		t.Errorf("IHAVEs = %d before any round existed, want 0", got)
	}
}

func TestNoAnnouncementWhenLastRoundEvicted(t *testing.T) {
	// If the round has left the seen window a graft for it could not be
	// served, so the link must not be teased with an unservable IHAVE.
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2}}
	n := New(env, mem, Config{}, nil)
	n.Broadcast(7, []byte("x"))
	n.ResetSeen()
	env.sent = nil

	mem.neighbors = []id.ID{2, 4}
	n.OnCycle()
	if got := len(env.sentOfType(msg.PlumtreeIHave)); got != 0 {
		t.Errorf("IHAVEs = %d for an evicted round, want 0", got)
	}
}

func TestAnnouncementOpensGraftRecovery(t *testing.T) {
	// End to end across two nodes: a deprived node that gains the link,
	// receives the announcement, times out and grafts recovers the payload.
	env := newFakeEnv(5)
	mem := &fakeMembership{neighbors: []id.ID{9}}
	var got []uint64
	n := New(env, mem, Config{TimerDelay: 3}, func(r uint64, _ uint32, _ []byte, _ int) {
		got = append(got, r)
	})
	// The announcement a repaired peer would send on link formation:
	n.Deliver(9, &msg.Message{Type: msg.PlumtreeIHave, Sender: 9, Round: 12, Hops: 2})
	for _, tm := range env.Advance(3) { // missing-round timer fires
		n.Deliver(5, &tm)
	}
	grafts := env.sentOfType(msg.PlumtreeGraft)
	if len(grafts) != 1 || grafts[0].to != 9 {
		t.Fatalf("grafts = %v, want one to n9", grafts)
	}
	n.Deliver(9, &msg.Message{Type: msg.PlumtreeGossip, Sender: 9, Round: 12, Payload: []byte("p")})
	if len(got) != 1 || got[0] != 12 {
		t.Errorf("delivered = %v, want [12]", got)
	}
}
