package gossip

import (
	"fmt"
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/peer/peertest"
	"hyparview/internal/rng"
)

// fakeMembership is a scriptable peer.Membership.
type fakeMembership struct {
	neighbors []id.ID
	downs     []id.ID
	delivered []msg.Message
	cycles    int
}

var _ peer.Membership = (*fakeMembership)(nil)

func (f *fakeMembership) Deliver(_ id.ID, m *msg.Message) { f.delivered = append(f.delivered, *m) }
func (f *fakeMembership) OnCycle()                        { f.cycles++ }
func (f *fakeMembership) Neighbors() []id.ID              { return append([]id.ID(nil), f.neighbors...) }
func (f *fakeMembership) OnPeerDown(p id.ID)              { f.downs = append(f.downs, p) }

func (f *fakeMembership) GossipTargets(fanout int, exclude id.ID) []id.ID {
	var out []id.ID
	for _, n := range f.neighbors {
		if n != exclude {
			out = append(out, n)
		}
	}
	if fanout > 0 && len(out) > fanout {
		out = out[:fanout]
	}
	return out
}

// fakeEnv records sends.
type fakeEnv struct {
	peertest.ManualScheduler
	self id.ID
	rand *rng.Rand
	down map[id.ID]bool
	sent []sentMsg
}

type sentMsg struct {
	to id.ID
	m  msg.Message
}

var _ peer.Env = (*fakeEnv)(nil)

func newFakeEnv(self id.ID) *fakeEnv {
	return &fakeEnv{self: self, rand: rng.New(1), down: make(map[id.ID]bool)}
}

func (e *fakeEnv) Self() id.ID     { return e.self }
func (e *fakeEnv) Rand() *rng.Rand { return e.rand }
func (e *fakeEnv) Watch(id.ID)     {}
func (e *fakeEnv) Unwatch(id.ID)   {}
func (e *fakeEnv) Probe(id.ID) error {
	return nil
}

func (e *fakeEnv) Send(dst id.ID, m msg.Message) error {
	if e.down[dst] {
		return fmt.Errorf("send: %w", peer.ErrPeerDown)
	}
	e.sent = append(e.sent, sentMsg{to: dst, m: m})
	return nil
}

func TestBroadcastFloodsAllNeighbors(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2, 3, 4}}
	var delivered []uint64
	n := New(env, mem, Config{Mode: Flood}, func(r uint64, _ uint32, _ []byte, _ int) {
		delivered = append(delivered, r)
	})
	n.Broadcast(7, []byte("x"))
	if len(env.sent) != 3 {
		t.Fatalf("sent to %d peers, want 3", len(env.sent))
	}
	for _, s := range env.sent {
		if s.m.Type != msg.Gossip || s.m.Round != 7 || s.m.Hops != 0 {
			t.Errorf("bad gossip frame: %+v", s.m)
		}
	}
	if len(delivered) != 1 || delivered[0] != 7 {
		t.Errorf("local delivery = %v, want [7]", delivered)
	}
}

func TestReceiveForwardsOnceExcludingSender(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2, 3, 4}}
	n := New(env, mem, Config{Mode: Flood}, nil)
	g := msg.Message{Type: msg.Gossip, Sender: 2, Round: 9, Hops: 3}
	n.Deliver(2, &g)
	if len(env.sent) != 2 {
		t.Fatalf("forwarded to %d peers, want 2 (sender excluded)", len(env.sent))
	}
	for _, s := range env.sent {
		if s.to == 2 {
			t.Error("message forwarded back to sender")
		}
		if s.m.Hops != 4 {
			t.Errorf("hops = %d, want 4", s.m.Hops)
		}
		if s.m.Sender != 1 {
			t.Errorf("relay sender = %v, want self", s.m.Sender)
		}
	}
	env.sent = nil
	// Second copy: duplicate, must not forward.
	n.Deliver(3, &g)
	if len(env.sent) != 0 {
		t.Error("duplicate was forwarded")
	}
	d, dup, fwd, _ := n.Counters()
	if d != 1 || dup != 1 || fwd != 2 {
		t.Errorf("counters = %d %d %d", d, dup, fwd)
	}
}

func TestFanoutModeBoundsTargets(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2, 3, 4, 5, 6, 7}}
	n := New(env, mem, Config{Mode: Fanout, Fanout: 4}, nil)
	n.Broadcast(1, nil)
	if len(env.sent) != 4 {
		t.Errorf("fanout sent %d, want 4", len(env.sent))
	}
}

func TestPeerDownReporting(t *testing.T) {
	env := newFakeEnv(1)
	env.down[3] = true
	mem := &fakeMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{Mode: Flood, ReportPeerDown: true}, nil)
	n.Broadcast(1, nil)
	if len(mem.downs) != 1 || mem.downs[0] != 3 {
		t.Errorf("downs = %v, want [n3]", mem.downs)
	}
	_, _, _, fails := n.Counters()
	if fails != 1 {
		t.Errorf("sendFails = %d, want 1", fails)
	}
}

func TestPeerDownNotReportedWhenDisabled(t *testing.T) {
	env := newFakeEnv(1)
	env.down[3] = true
	mem := &fakeMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{Mode: Flood, ReportPeerDown: false}, nil)
	n.Broadcast(1, nil)
	if len(mem.downs) != 0 {
		t.Errorf("downs = %v, want none (fire-and-forget)", mem.downs)
	}
}

func TestNonGossipDelegatedToMembership(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{}
	n := New(env, mem, Config{}, nil)
	n.Deliver(2, &msg.Message{Type: msg.Shuffle, Sender: 2})
	if len(mem.delivered) != 1 || mem.delivered[0].Type != msg.Shuffle {
		t.Error("membership message not delegated")
	}
	n.OnCycle()
	if mem.cycles != 1 {
		t.Error("OnCycle not delegated")
	}
	n.OnPeerDown(9)
	if len(mem.downs) != 1 || mem.downs[0] != 9 {
		t.Error("OnPeerDown not forwarded")
	}
}

func TestBroadcastDuplicateRoundIgnored(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2}}
	n := New(env, mem, Config{Mode: Flood}, nil)
	n.Broadcast(5, nil)
	env.sent = nil
	n.Broadcast(5, nil)
	if len(env.sent) != 0 {
		t.Error("re-broadcast of a seen round forwarded")
	}
}

func TestResetSeenAllowsRedelivery(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2}}
	n := New(env, mem, Config{Mode: Flood}, nil)
	n.Deliver(2, &msg.Message{Type: msg.Gossip, Sender: 2, Round: 3})
	if !n.Seen(3) {
		t.Fatal("round not marked seen")
	}
	n.ResetSeen()
	if n.Seen(3) {
		t.Error("ResetSeen did not clear")
	}
}

func TestOnPeerDownUnknownPeerForwarded(t *testing.T) {
	// The gossip layer is a pure pass-through for failure notifications: a
	// peer it never sent to (or that is not in the view at all) still
	// reaches the membership protocol, which owns the decision.
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2}}
	n := New(env, mem, Config{Mode: Flood}, nil)
	n.OnPeerDown(42)
	n.OnPeerDown(42) // repeated notification is forwarded again, not deduped
	if len(mem.downs) != 2 || mem.downs[0] != 42 || mem.downs[1] != 42 {
		t.Errorf("downs = %v, want [n42 n42]", mem.downs)
	}
}

func TestResetSeenRedeliveryCountsAgain(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2}}
	var deliveries int
	n := New(env, mem, Config{Mode: Flood}, func(uint64, uint32, []byte, int) { deliveries++ })
	g := msg.Message{Type: msg.Gossip, Sender: 2, Round: 3}
	n.Deliver(2, &g)
	n.Deliver(2, &g)
	d, dup, _, _ := n.Counters()
	if d != 1 || dup != 1 || deliveries != 1 {
		t.Fatalf("before reset: delivered=%d dup=%d callbacks=%d", d, dup, deliveries)
	}
	// ResetSeen trades exactly-once delivery for bounded memory: a round
	// redelivered afterwards counts (and is forwarded) as new. Experiments
	// must only reset between bursts, which this behavior makes observable.
	n.ResetSeen()
	n.Deliver(2, &g)
	d, dup, _, _ = n.Counters()
	if d != 2 || dup != 1 || deliveries != 2 {
		t.Errorf("after reset: delivered=%d dup=%d callbacks=%d, want 2 1 2", d, dup, deliveries)
	}
}

// offer delivers one copy of round from neighbor 2 and reports whether the
// node took it as a first delivery.
func offer(n *Node, round uint64) bool {
	before, _, _, _ := n.Counters()
	n.Deliver(2, &msg.Message{Type: msg.Gossip, Sender: 2, Round: round})
	after, _, _, _ := n.Counters()
	return after != before
}

func TestExactlyOnceAcrossSeenWindowWrap(t *testing.T) {
	// Three windows of consecutive rounds, so the seen ring wraps twice; each
	// round is re-offered after every later round still in its window, so a
	// duplicate is looked for at every distance from the newest entry.
	const window = 8
	n := New(newFakeEnv(1), &fakeMembership{neighbors: []id.ID{2}}, Config{SeenWindow: window}, nil)
	for r := uint64(0); r < 3*window; r++ {
		if !offer(n, r) {
			t.Fatalf("round %d: first copy not delivered", r)
		}
		for old := r - min(r, window-1); old <= r; old++ {
			if offer(n, old) {
				t.Fatalf("round %d delivered again after round %d", old, r)
			}
		}
	}
	if !offer(n, 2*window-1) {
		t.Error("the round just older than the window is still held: SeenWindow is not the capacity")
	}
}

func TestFirstArrivalBelowNewestRound(t *testing.T) {
	// Under a latency model round r+1 can reach a node before round r: r is
	// below the largest identifier seen and still a first delivery.
	n := New(newFakeEnv(1), &fakeMembership{neighbors: []id.ID{2}}, Config{}, nil)
	for _, r := range []uint64{10, 12} {
		if !offer(n, r) {
			t.Fatalf("round %d not delivered", r)
		}
	}
	if !offer(n, 11) {
		t.Fatal("round 11, first seen after round 12, not delivered")
	}
	for _, r := range []uint64{11, 10, 12, 11} {
		if offer(n, r) {
			t.Errorf("duplicate of round %d delivered", r)
		}
	}
}

func TestResetSeenForgetsLargestRound(t *testing.T) {
	n := New(newFakeEnv(1), &fakeMembership{neighbors: []id.ID{2}}, Config{}, nil)
	for r := uint64(100); r < 105; r++ {
		offer(n, r)
	}
	n.ResetSeen()
	// Smaller than everything before the reset, then a round held before it.
	for _, r := range []uint64{50, 102, 104} {
		if !offer(n, r) {
			t.Errorf("round %d not delivered after ResetSeen", r)
		}
		if offer(n, r) {
			t.Errorf("round %d delivered twice after ResetSeen", r)
		}
	}
}

func TestTracker(t *testing.T) {
	// One part is the plain tracker; with three, the same deliveries land in
	// different writers' parts and every read must sum them.
	for _, parts := range []int{1, 3} {
		tr := NewTrackerParts(parts)
		r1 := tr.NextRound()
		r2 := tr.NextRound()
		if r1 == r2 {
			t.Fatal("NextRound not unique")
		}
		tr.Deliver(r1, 0, nil, 0) // part 0
		tr.Part(1%parts).Deliver(r1, 0, nil, 5)
		tr.Part(2%parts).Deliver(r1, 0, nil, 3)
		if got := tr.Delivered(r1); got != 3 {
			t.Errorf("parts=%d: Delivered = %d, want 3", parts, got)
		}
		if got := tr.Reliability(r1, 6); got != 0.5 {
			t.Errorf("parts=%d: Reliability = %v, want 0.5", parts, got)
		}
		if got := tr.MaxHops(r1); got != 5 {
			t.Errorf("parts=%d: MaxHops = %d, want 5", parts, got)
		}
		if got := tr.AvgHops(r1); got != (0+3+5)/3.0 {
			t.Errorf("parts=%d: AvgHops = %v", parts, got)
		}
		if got := tr.Reliability(r2, 6); got != 0 {
			t.Errorf("parts=%d: unknown round reliability = %v, want 0", parts, got)
		}
		tr.Forget(r1)
		if tr.Delivered(r1) != 0 {
			t.Errorf("parts=%d: Forget did not clear round", parts)
		}
		if tr.Reliability(r1, 0) != 0 {
			t.Error("zero population reliability must be 0")
		}
	}
}

func TestTrackerReset(t *testing.T) {
	tr := NewTrackerParts(2)
	r := tr.NextRound()
	tr.Deliver(r, 0, nil, 0)
	tr.Part(1).Deliver(r, 0, nil, 0)
	tr.Reset()
	if tr.Delivered(r) != 0 {
		t.Error("Reset kept stats")
	}
	if next := tr.NextRound(); next <= r {
		t.Error("Reset rewound the round counter")
	}
}

func TestModeString(t *testing.T) {
	if Flood.String() != "flood" || Fanout.String() != "fanout" || Mode(9).String() != "unknown" {
		t.Error("mode names wrong")
	}
}

func TestMembershipAccessor(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{}
	n := New(env, mem, Config{}, nil)
	if n.Membership() != peer.Membership(mem) {
		t.Error("Membership() does not return the wrapped protocol")
	}
}
