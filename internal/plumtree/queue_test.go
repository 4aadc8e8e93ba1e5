package plumtree

import (
	"encoding/binary"
	"reflect"
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
)

// batch packs (round, hops) pairs the way a flush does.
func batch(entries ...announcement) []byte {
	var b []byte
	for _, e := range entries {
		b = binary.BigEndian.AppendUint64(b, e.round)
		b = binary.BigEndian.AppendUint16(b, e.hops)
	}
	return b
}

// lazyNode is node 1 over neighbors, with every neighbor but n2 demoted to
// lazy by a PRUNE, and no send recorded yet.
func lazyNode(t *testing.T, cfg Config, neighbors ...id.ID) (*Node, *fakeEnv, *fakeMembership) {
	t.Helper()
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: neighbors}
	n := New(env, mem, cfg, nil)
	for _, p := range neighbors {
		if p != 2 {
			n.Deliver(p, &msg.Message{Type: msg.PlumtreePrune, Sender: p})
		}
	}
	env.sent = nil
	return n, env, mem
}

func TestLazyQueueFlushesOneIHavePerPeer(t *testing.T) {
	n, env, _ := lazyNode(t, Config{}, 2, 3, 4, 5)
	for r := uint64(1); r <= 5; r++ {
		n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: r, Payload: []byte("p")})
	}
	if got := env.sentOfType(msg.PlumtreeIHave); len(got) != 0 {
		t.Fatalf("IHAVEs sent before the flush: %v", got)
	}
	if env.Pending() != 1 {
		t.Fatalf("scheduled timers = %d, want one flush tick", env.Pending())
	}

	fireDue(env, n, flushDelay(n))
	ihaves := env.sentOfType(msg.PlumtreeIHave)
	var want []announcement
	for r := uint64(1); r <= 5; r++ {
		want = append(want, announcement{round: r, hops: 1})
	}
	if len(ihaves) != 3 {
		t.Fatalf("IHAVE frames = %d, want 3 (one per lazy peer)", len(ihaves))
	}
	for i, s := range ihaves {
		if s.to != id.ID(3+i) {
			t.Errorf("frame %d went to %v, want n%d (ascending peer order)", i, s.to, 3+i)
		}
		if s.m.Round != 0 || s.m.Hops != 0 || string(s.m.Payload) != string(batch(want...)) {
			t.Errorf("frame to %v = %+v, want rounds 1-5 at hop 1 in the payload", s.to, s.m)
		}
	}
	if got := n.Control().IHavesSent; got != 15 {
		t.Errorf("IHavesSent = %d, want 15 (announcements, not frames)", got)
	}
	if env.Pending() != 0 {
		t.Errorf("an empty queue left %d timers armed", env.Pending())
	}
}

func TestFlushSkipsPeerThatLeft(t *testing.T) {
	n, env, mem := lazyNode(t, Config{}, 2, 3, 4)
	n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: 1, Hops: 4})
	mem.neighbors = []id.ID{2, 4} // n3 leaves the view before the flush

	fireDue(env, n, flushDelay(n))
	ihaves := env.sentOfType(msg.PlumtreeIHave)
	if len(ihaves) != 1 || ihaves[0].to != 4 || ihaves[0].m.Round != 1 || ihaves[0].m.Hops != 5 {
		t.Fatalf("ihaves = %v, want one plain IHAVE for round 1 at hop 5 to n4", ihaves)
	}
	if len(env.sent) != 1 {
		t.Errorf("sent = %v, want only the IHAVE to n4", env.sent)
	}
}

func TestFullQueueFlushesAtOnce(t *testing.T) {
	n, env, _ := lazyNode(t, Config{}, 2, 3)
	for r := uint64(1); r < maxQueued; r++ {
		n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: r})
	}
	if got := env.sentOfType(msg.PlumtreeIHave); len(got) != 0 {
		t.Fatalf("flushed below the bound: %v", got)
	}
	n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: maxQueued})
	ihaves := env.sentOfType(msg.PlumtreeIHave)
	if len(ihaves) != 1 || len(ihaves[0].m.Payload) != maxQueued*ihaveEntry {
		t.Fatalf("ihaves = %v, want one frame of %d entries", ihaves, maxQueued)
	}
	// The tick armed by the first entry is still in flight; it finds the
	// queue empty and sends nothing.
	env.sent = nil
	fireDue(env, n, flushDelay(n))
	if len(env.sent) != 0 {
		t.Errorf("the stale flush tick sent %v", env.sent)
	}
}

func TestResetSeenEmptiesLazyQueue(t *testing.T) {
	n, env, _ := lazyNode(t, Config{}, 2, 3)
	n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: 1})
	n.ResetSeen()
	fireDue(env, n, flushDelay(n))
	if len(env.sent) != 0 {
		t.Errorf("a flush after ResetSeen sent %v", env.sent)
	}
}

func TestMalformedBatchIHaveChangesNothing(t *testing.T) {
	n, env, _ := lazyNode(t, Config{OptimizeThreshold: 1}, 2, 3)
	n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: 1, Hops: 8})
	fireDue(env, n, flushDelay(n))
	env.sent = nil
	eager, lazy, control := n.EagerPeers(), n.LazyPeers(), n.Control()

	// Unseen rounds would arm timers, seen round 1 would count toward the
	// swap streak: a batch that is dropped whole does neither.
	good := batch(announcement{round: 1, hops: 1}, announcement{round: 7, hops: 1})
	tooMany := batch(make([]announcement, maxQueued+1)...)
	for _, p := range [][]byte{good[:9], good[:11], append(good, 0), tooMany} {
		n.Deliver(3, &msg.Message{Type: msg.PlumtreeIHave, Sender: 3, Payload: p})
	}
	if len(env.sent) != 0 || env.Pending() != 0 || n.miss.Len() != 0 || n.streak != 0 {
		t.Fatalf("malformed batches acted: sent %v, timers %d, missing %d, streak %d",
			env.sent, env.Pending(), n.miss.Len(), n.streak)
	}
	if !reflect.DeepEqual(n.EagerPeers(), eager) || !reflect.DeepEqual(n.LazyPeers(), lazy) || n.Control() != control {
		t.Fatalf("malformed batches changed the peer sets or counters")
	}

	// The well-formed batch is applied entry by entry.
	n.Deliver(3, &msg.Message{Type: msg.PlumtreeIHave, Sender: 3, Payload: good})
	if n.miss.Len() != 1 || env.Pending() != 1 || n.streak != 1 {
		t.Errorf("valid batch: missing %d, timers %d, streak %d; want 1, 1, 1", n.miss.Len(), env.Pending(), n.streak)
	}
}

// TestLostEagerCopyGraftedWithinBound runs an announcer and a receiver on
// one clock: the receiver is lazy at the announcer and never gets its eager
// copy, so it grafts once the queued announcement's flush tick and its own
// missing-message timer have both run out.
func TestLostEagerCopyGraftedWithinBound(t *testing.T) {
	const timer = 40
	a, aenv, _ := lazyNode(t, Config{TimerDelay: timer}, 2, 3)
	benv := newFakeEnv(3)
	b := New(benv, &fakeMembership{neighbors: []id.ID{1, 4}}, Config{TimerDelay: timer}, nil)

	a.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: 9, Payload: []byte("p")})
	bound := uint64(timer/4 + timer)
	for tick := uint64(1); tick <= bound; tick++ {
		fireDue(aenv, a, 1)
		for _, s := range aenv.sent {
			if s.to == 3 {
				b.Deliver(1, &s.m)
			}
		}
		aenv.sent = nil
		fireDue(benv, b, 1)
		if grafts := benv.sentOfType(msg.PlumtreeGraft); len(grafts) > 0 {
			if grafts[0].to != 1 || grafts[0].m.Round != 9 || !grafts[0].m.Accept {
				t.Fatalf("graft = %+v, want a retransmission request for round 9 to n1", grafts[0])
			}
			return
		}
	}
	t.Fatalf("no graft within %d ticks of the announcer's delivery", bound)
}

// TestOptimizationFiresOnThirdQualifyingBatchEntry pins the §4.4 streak
// inside batch IHAVEs: two qualifying entries and a non-qualifying one do
// not swap; three qualifying entries in a row swap on the third, so the
// fourth entry already comes from an eager peer.
func TestOptimizationFiresOnThirdQualifyingBatchEntry(t *testing.T) {
	n, env, _ := lazyNode(t, Config{OptimizeThreshold: 2}, 2, 3)
	for r := uint64(1); r <= 7; r++ {
		n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: r, Hops: 8}) // delivered at 9
	}
	env.sent = nil
	short := func(r uint64) announcement { return announcement{round: r, hops: 2} }
	long := func(r uint64) announcement { return announcement{round: r, hops: 9} }

	n.Deliver(3, &msg.Message{Type: msg.PlumtreeIHave, Sender: 3, Payload: batch(short(1), short(2), long(3))})
	if len(env.sent) != 0 {
		t.Fatalf("swapped on a broken streak: %v", env.sent)
	}

	n.Deliver(3, &msg.Message{Type: msg.PlumtreeIHave, Sender: 3, Payload: batch(short(4), short(5), short(6), long(7))})
	grafts := env.sentOfType(msg.PlumtreeGraft)
	if len(grafts) != 1 || grafts[0].to != 3 || grafts[0].m.Accept {
		t.Fatalf("grafts = %v, want one optimization graft to n3", grafts)
	}
	prunes := env.sentOfType(msg.PlumtreePrune)
	if len(prunes) != 1 || prunes[0].to != 2 {
		t.Fatalf("prunes = %v, want parent n2 pruned", prunes)
	}
	if n.Control().Optimizes != 1 {
		t.Errorf("optimizes = %d, want 1", n.Control().Optimizes)
	}
}
