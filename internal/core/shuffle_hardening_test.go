package core

import (
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
)

// The shuffle exchange is the one protocol path where a remote peer hands us
// an arbitrary identifier list, so it is the natural target for the
// adversarial suite's ShuffleLiar tamperer. These tests pin the handler
// boundary defences: sanitization (self/nil/duplicate/over-cap entries
// rejected and counted) and the unsolicited-reply drop.

func TestSanitizePeerListRejectsAndCounts(t *testing.T) {
	n, _ := newTestNode(1)
	cap := 4 * (1 + n.Config().ShuffleKa + n.Config().ShuffleKp)
	if cap < 16 {
		cap = 16
	}
	list := []id.ID{1, id.Nil, 7, 7, 8}
	for i := 0; len(list) < cap+5; i++ {
		list = append(list, id.ID(100+i))
	}
	out := n.sanitizePeerList(list)
	if len(out) != cap {
		t.Errorf("sanitized length = %d, want capped at %d", len(out), cap)
	}
	seen := make(map[id.ID]bool)
	for _, node := range out {
		if node == 1 || node.IsNil() {
			t.Errorf("self/nil id %v survived sanitization", node)
		}
		if seen[node] {
			t.Errorf("duplicate id %v survived sanitization", node)
		}
		seen[node] = true
	}
	// self + nil + one duplicate + the 2 entries past the cap.
	if got := n.Stats().ShuffleEntriesRejected; got != 5 {
		t.Errorf("ShuffleEntriesRejected = %d, want 5", got)
	}
}

func TestShuffleLiarListDoesNotPoisonViews(t *testing.T) {
	// A ShuffleLiar-style exchange: the receiver's own id, duplicates and a
	// flood of garbage. The poisoned entries must neither enter the views
	// nor size the reply (which would drain the passive view back to the
	// attacker).
	n, env := newTestNode(1)
	for _, m := range []id.ID{10, 11} {
		n.Deliver(m, &msg.Message{Type: msg.Neighbor, Sender: m, Priority: msg.HighPriority})
	}
	for i := id.ID(30); i < 36; i++ {
		n.addPassive(i)
	}
	env.take()

	lies := []id.ID{1, 1, 1, id.Nil}
	for i := 0; i < 200; i++ {
		lies = append(lies, id.ID(1000+i))
	}
	n.Deliver(10, &msg.Message{
		Type: msg.Shuffle, Sender: 10, Subject: 66, TTL: 1, Nodes: lies,
	})
	if n.PassiveContains(1) || n.ActiveContains(1) {
		t.Error("own id poisoned a view")
	}
	s, ok := env.lastOfType(msg.ShuffleReply)
	if !ok {
		t.Fatal("exhausted shuffle not answered")
	}
	max := 4 * (1 + n.Config().ShuffleKa + n.Config().ShuffleKp)
	if max < 16 {
		max = 16
	}
	if len(s.m.Nodes) > max {
		t.Errorf("reply sized by the raw lie: %d entries, want <= %d", len(s.m.Nodes), max)
	}
	if n.Stats().ShuffleEntriesRejected == 0 {
		t.Error("no lie entries counted as rejected")
	}
}

func TestUnsolicitedShuffleReplyDropped(t *testing.T) {
	n, env := newTestNode(1)
	n.Deliver(10, &msg.Message{Type: msg.Neighbor, Sender: 10, Priority: msg.HighPriority})
	env.take()

	// No shuffle outstanding: a forged or reflected reply must be dropped at
	// the boundary, not integrated.
	n.Deliver(66, &msg.Message{
		Type: msg.ShuffleReply, Sender: 66, Nodes: []id.ID{70, 71, 72},
	})
	for _, poisoned := range []id.ID{70, 71, 72} {
		if n.PassiveContains(poisoned) {
			t.Errorf("unsolicited reply entry %v integrated", poisoned)
		}
	}
	if got := n.Stats().UnsolicitedShuffleReplies; got != 1 {
		t.Errorf("UnsolicitedShuffleReplies = %d, want 1", got)
	}

	// A second copy of a legitimate reply (duplicate fault) is unsolicited
	// too: lastShuffleSent is consumed by the first.
	n.OnCycle()
	env.take()
	reply := msg.Message{Type: msg.ShuffleReply, Sender: 10, Nodes: []id.ID{80}}
	n.Deliver(10, &reply)
	n.Deliver(10, &reply)
	if got := n.Stats().UnsolicitedShuffleReplies; got != 2 {
		t.Errorf("UnsolicitedShuffleReplies = %d after duplicated reply, want 2", got)
	}
}
