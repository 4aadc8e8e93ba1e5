package core

import (
	"fmt"
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/peer/peertest"
	"hyparview/internal/rng"
)

// fakeEnv is a scriptable peer.Env for message-by-message handler tests.
type fakeEnv struct {
	peertest.ManualScheduler
	self    id.ID
	rand    *rng.Rand
	down    map[id.ID]bool
	sent    []sentMsg
	watched map[id.ID]bool
}

type sentMsg struct {
	to id.ID
	m  msg.Message
}

func newFakeEnv(self id.ID) *fakeEnv {
	return &fakeEnv{
		self:    self,
		rand:    rng.New(uint64(self) + 1000),
		down:    make(map[id.ID]bool),
		watched: make(map[id.ID]bool),
	}
}

var _ peer.Env = (*fakeEnv)(nil)

func (e *fakeEnv) Self() id.ID     { return e.self }
func (e *fakeEnv) Rand() *rng.Rand { return e.rand }

func (e *fakeEnv) Send(dst id.ID, m msg.Message) error {
	if e.down[dst] {
		return fmt.Errorf("send: %w", peer.ErrPeerDown)
	}
	e.sent = append(e.sent, sentMsg{to: dst, m: m})
	return nil
}

func (e *fakeEnv) Probe(dst id.ID) error {
	if e.down[dst] {
		return fmt.Errorf("probe: %w", peer.ErrPeerDown)
	}
	return nil
}

func (e *fakeEnv) Watch(dst id.ID)   { e.watched[dst] = true }
func (e *fakeEnv) Unwatch(dst id.ID) { delete(e.watched, dst) }

// take returns and clears the recorded sends.
func (e *fakeEnv) take() []sentMsg {
	out := e.sent
	e.sent = nil
	return out
}

// lastOfType returns the most recent sent message of the given type.
func (e *fakeEnv) lastOfType(t msg.Type) (sentMsg, bool) {
	for i := len(e.sent) - 1; i >= 0; i-- {
		if e.sent[i].m.Type == t {
			return e.sent[i], true
		}
	}
	return sentMsg{}, false
}

func newTestNode(self id.ID) (*Node, *fakeEnv) {
	env := newFakeEnv(self)
	return New(env, Config{}), env
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		give    Config
		wantErr bool
	}{
		{name: "defaults", give: DefaultConfig(), wantErr: false},
		{name: "zero active", give: Config{ActiveSize: 0, PassiveSize: 1, ARWL: 1, PRWL: 1, ShuffleTTL: 1}, wantErr: true},
		{name: "prwl exceeds arwl", give: Config{ActiveSize: 5, PassiveSize: 30, ARWL: 3, PRWL: 6, ShuffleTTL: 1}, wantErr: true},
		{name: "ka exceeds active", give: Config{ActiveSize: 2, PassiveSize: 30, ARWL: 6, PRWL: 3, ShuffleKa: 5, ShuffleKp: 4, ShuffleTTL: 1}, wantErr: true},
		{name: "kp exceeds passive", give: Config{ActiveSize: 5, PassiveSize: 3, ARWL: 6, PRWL: 3, ShuffleKa: 3, ShuffleKp: 9, ShuffleTTL: 1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.give.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestWithDefaultsFillsZeroFields(t *testing.T) {
	got := Config{ActiveSize: 7}.WithDefaults()
	if got.ActiveSize != 7 {
		t.Error("override lost")
	}
	d := DefaultConfig()
	if got.PassiveSize != d.PassiveSize || got.ARWL != d.ARWL || got.PRWL != d.PRWL {
		t.Errorf("defaults not filled: %+v", got)
	}
	if got.ShuffleTTL != got.ARWL {
		t.Errorf("ShuffleTTL should default to ARWL, got %d", got.ShuffleTTL)
	}
}

func TestJoinAddsContactAndSendsJoin(t *testing.T) {
	n, env := newTestNode(1)
	if err := n.Join(2); err != nil {
		t.Fatal(err)
	}
	if !n.ActiveContains(2) {
		t.Error("contact not in active view")
	}
	if !env.watched[2] {
		t.Error("contact connection not watched")
	}
	sent := env.take()
	if len(sent) != 1 || sent[0].m.Type != msg.Join || sent[0].to != 2 {
		t.Errorf("sent = %+v, want one JOIN to n2", sent)
	}
}

// A node that lost its only neighbour with an empty passive view — its JOIN
// was lost, say — has nothing to repair from; the next cycle joins its
// contact again, and keeps trying while the contact is unreachable.
func TestIsolatedNodeJoinsContactAgain(t *testing.T) {
	n, env := newTestNode(1)
	if err := n.Join(5); err != nil {
		t.Fatal(err)
	}
	n.OnPeerDown(5)
	if len(n.Active()) != 0 || len(n.Passive()) != 0 {
		t.Fatalf("setup: views %v / %v, want both empty", n.Active(), n.Passive())
	}

	env.down[5] = true
	env.take()
	n.OnCycle()
	if len(env.take()) != 0 || n.ActiveContains(5) {
		t.Error("an unreachable contact was taken into the active view")
	}

	delete(env.down, 5)
	n.OnCycle()
	s, ok := env.lastOfType(msg.Join)
	if !ok || s.to != 5 || s.m.Sender != 1 {
		t.Fatalf("isolated node did not JOIN its contact again: %+v", env.sent)
	}
	if !n.ActiveContains(5) || !env.watched[5] {
		t.Error("re-join did not take the contact into the active view")
	}
}

func TestJoinToDeadContactErrors(t *testing.T) {
	n, env := newTestNode(1)
	env.down[2] = true
	if err := n.Join(2); err == nil {
		t.Error("join via dead contact succeeded")
	}
	if n.ActiveContains(2) {
		t.Error("dead contact entered active view")
	}
}

func TestJoinSelfIsNoop(t *testing.T) {
	n, env := newTestNode(1)
	if err := n.Join(1); err != nil {
		t.Fatal(err)
	}
	if len(env.take()) != 0 || len(n.Active()) != 0 {
		t.Error("self-join had effects")
	}
}

func TestHandleJoinFansOutForwardJoins(t *testing.T) {
	n, env := newTestNode(1)
	// Pre-populate the active view with 3 members.
	for _, m := range []id.ID{10, 11, 12} {
		n.Deliver(m, &msg.Message{Type: msg.Neighbor, Sender: m, Priority: msg.HighPriority})
	}
	env.take()

	n.Deliver(99, &msg.Message{Type: msg.Join, Sender: 99})
	if !n.ActiveContains(99) {
		t.Error("joiner not added to active view")
	}
	fwds := 0
	for _, s := range env.take() {
		if s.m.Type == msg.ForwardJoin {
			fwds++
			if s.m.Subject != 99 || s.m.TTL != n.Config().ARWL || s.to == 99 {
				t.Errorf("bad FORWARDJOIN: %+v", s)
			}
		}
	}
	if fwds != 3 {
		t.Errorf("FORWARDJOIN fan-out = %d, want 3", fwds)
	}
}

func TestForwardJoinTTLZeroAccepts(t *testing.T) {
	n, env := newTestNode(1)
	for _, m := range []id.ID{10, 11} {
		n.Deliver(m, &msg.Message{Type: msg.Neighbor, Sender: m, Priority: msg.HighPriority})
	}
	env.take()

	n.Deliver(10, &msg.Message{Type: msg.ForwardJoin, Sender: 10, Subject: 99, TTL: 0})
	if !n.ActiveContains(99) {
		t.Error("joiner not accepted at TTL 0")
	}
	// The new link must be announced to the joiner (symmetry).
	if s, ok := env.lastOfType(msg.Neighbor); !ok || s.to != 99 || s.m.Priority != msg.HighPriority {
		t.Errorf("no high-priority NEIGHBOR to joiner; sent=%+v", env.sent)
	}
}

func TestForwardJoinNearIsolationAccepts(t *testing.T) {
	n, env := newTestNode(1)
	n.Deliver(10, &msg.Message{Type: msg.Neighbor, Sender: 10, Priority: msg.HighPriority})
	env.take()
	// |active| == 1: must accept regardless of TTL (Algorithm 1).
	n.Deliver(10, &msg.Message{Type: msg.ForwardJoin, Sender: 10, Subject: 99, TTL: 6})
	if !n.ActiveContains(99) {
		t.Error("joiner not accepted despite near-isolation")
	}
}

func TestForwardJoinAtPRWLAddsPassive(t *testing.T) {
	n, env := newTestNode(1)
	for _, m := range []id.ID{10, 11, 12} {
		n.Deliver(m, &msg.Message{Type: msg.Neighbor, Sender: m, Priority: msg.HighPriority})
	}
	env.take()

	prwl := n.Config().PRWL
	n.Deliver(10, &msg.Message{Type: msg.ForwardJoin, Sender: 10, Subject: 99, TTL: prwl})
	if !n.PassiveContains(99) {
		t.Error("joiner not added to passive view at TTL == PRWL")
	}
	if n.ActiveContains(99) {
		t.Error("joiner wrongly added to active view")
	}
	// Walk must continue, decremented, away from the sender.
	s, ok := env.lastOfType(msg.ForwardJoin)
	if !ok || s.to == 10 || s.m.TTL != prwl-1 || s.m.Sender != 1 {
		t.Errorf("walk not forwarded properly: %+v (ok=%v)", s, ok)
	}
}

func TestForwardJoinRelayAvoidsSender(t *testing.T) {
	n, env := newTestNode(1)
	for _, m := range []id.ID{10, 11} {
		n.Deliver(m, &msg.Message{Type: msg.Neighbor, Sender: m, Priority: msg.HighPriority})
	}
	env.take()
	for i := 0; i < 50; i++ {
		n.Deliver(10, &msg.Message{Type: msg.ForwardJoin, Sender: 10, Subject: 99, TTL: 5})
		if s, ok := env.lastOfType(msg.ForwardJoin); ok && s.to == 10 {
			t.Fatal("FORWARDJOIN relayed back to its sender")
		}
		env.take()
		n.active.Remove(99) // in case it was accepted via dead-relay fallback
	}
}

func TestDisconnectDemotesToPassive(t *testing.T) {
	n, env := newTestNode(1)
	for _, m := range []id.ID{10, 11} {
		n.Deliver(m, &msg.Message{Type: msg.Neighbor, Sender: m, Priority: msg.HighPriority})
	}
	env.take()
	n.Deliver(10, &msg.Message{Type: msg.Disconnect, Sender: 10})
	if n.ActiveContains(10) {
		t.Error("disconnected peer still in active view")
	}
	if !n.PassiveContains(10) {
		t.Error("disconnected (live) peer not demoted to passive view")
	}
	if env.watched[10] {
		t.Error("disconnected peer still watched")
	}
}

func TestNeighborHighPriorityAlwaysAccepted(t *testing.T) {
	n, env := newTestNode(1)
	// Fill the active view completely.
	for i := id.ID(10); i < id.ID(10+uint64(n.Config().ActiveSize)); i++ {
		n.Deliver(i, &msg.Message{Type: msg.Neighbor, Sender: i, Priority: msg.HighPriority})
	}
	if len(n.Active()) != n.Config().ActiveSize {
		t.Fatalf("setup: active=%d", len(n.Active()))
	}
	env.take()

	n.Deliver(99, &msg.Message{Type: msg.Neighbor, Sender: 99, Priority: msg.HighPriority})
	if !n.ActiveContains(99) {
		t.Error("high-priority NEIGHBOR rejected")
	}
	if len(n.Active()) != n.Config().ActiveSize {
		t.Error("active view overflowed")
	}
	// Someone must have been evicted with a DISCONNECT and the requester
	// must get an accepting reply.
	if _, ok := env.lastOfType(msg.Disconnect); !ok {
		t.Error("no DISCONNECT sent to evicted member")
	}
	if s, ok := env.lastOfType(msg.NeighborReply); !ok || !s.m.Accept || s.to != 99 {
		t.Errorf("no accepting NEIGHBORREPLY to requester: %+v", env.sent)
	}
}

func TestNeighborLowPriorityRejectedWhenFull(t *testing.T) {
	n, env := newTestNode(1)
	for i := id.ID(10); i < id.ID(10+uint64(n.Config().ActiveSize)); i++ {
		n.Deliver(i, &msg.Message{Type: msg.Neighbor, Sender: i, Priority: msg.HighPriority})
	}
	env.take()
	n.Deliver(99, &msg.Message{Type: msg.Neighbor, Sender: 99, Priority: msg.LowPriority})
	if n.ActiveContains(99) {
		t.Error("low-priority NEIGHBOR accepted into a full view")
	}
	if s, ok := env.lastOfType(msg.NeighborReply); !ok || s.m.Accept {
		t.Errorf("expected rejecting reply, got %+v", env.sent)
	}
}

func TestNeighborLowPriorityAcceptedWithFreeSlot(t *testing.T) {
	n, env := newTestNode(1)
	n.Deliver(99, &msg.Message{Type: msg.Neighbor, Sender: 99, Priority: msg.LowPriority})
	if !n.ActiveContains(99) {
		t.Error("low-priority NEIGHBOR rejected despite free slot")
	}
	if s, ok := env.lastOfType(msg.NeighborReply); !ok || !s.m.Accept {
		t.Errorf("expected accepting reply, got %+v", env.sent)
	}
}

func TestRepairAfterPeerDown(t *testing.T) {
	n, env := newTestNode(1)
	// Active: 10. Passive: 20 (dead). The failed probe must purge 20 and
	// leave no promotion pending.
	n.Deliver(10, &msg.Message{Type: msg.Neighbor, Sender: 10, Priority: msg.HighPriority})
	n.addPassive(20)
	env.down[20] = true
	env.take()

	n.OnPeerDown(10)
	if n.ActiveContains(10) {
		t.Error("failed peer still in active view")
	}
	if n.PassiveContains(20) {
		t.Error("dead passive candidate not purged by failed probe")
	}
	if !n.pendingNeighbor.IsNil() {
		t.Errorf("pending = %v, want none (passive exhausted)", n.pendingNeighbor)
	}

	// A live candidate appears; the next cycle must promote it with HIGH
	// priority (active view is empty).
	n.addPassive(21)
	env.take()
	n.OnCycle()
	s, ok := env.lastOfType(msg.Neighbor)
	if !ok || s.to != 21 || s.m.Priority != msg.HighPriority {
		t.Fatalf("expected high-priority NEIGHBOR to n21, sent=%+v", env.sent)
	}
	// Acceptance completes the promotion.
	n.Deliver(21, &msg.Message{Type: msg.NeighborReply, Sender: 21, Accept: true})
	if !n.ActiveContains(21) || n.PassiveContains(21) {
		t.Error("promotion did not move candidate from passive to active")
	}
	if n.Stats().IsolationRecovered != 1 {
		t.Errorf("IsolationRecovered = %d, want 1", n.Stats().IsolationRecovered)
	}
}

func TestRepairRetriesAfterRejection(t *testing.T) {
	n, env := newTestNode(1)
	n.Deliver(10, &msg.Message{Type: msg.Neighbor, Sender: 10, Priority: msg.HighPriority})
	n.Deliver(11, &msg.Message{Type: msg.Neighbor, Sender: 11, Priority: msg.HighPriority})
	n.addPassive(20)
	n.addPassive(21)
	env.take()

	n.OnPeerDown(10) // one slot free, active not empty -> low priority
	first, ok := env.lastOfType(msg.Neighbor)
	if !ok || first.m.Priority != msg.LowPriority {
		t.Fatalf("expected low-priority NEIGHBOR, got %+v", env.sent)
	}
	env.take()

	// Rejection: the peer stays in the passive view and another candidate
	// is tried.
	n.Deliver(first.to, &msg.Message{Type: msg.NeighborReply, Sender: first.to, Accept: false})
	if !n.PassiveContains(first.to) {
		t.Error("rejected candidate evicted from passive view")
	}
	second, ok := env.lastOfType(msg.Neighbor)
	if !ok {
		t.Fatal("no second NEIGHBOR attempt after rejection")
	}
	if second.to == first.to {
		t.Error("same candidate retried immediately after rejection")
	}
}

// A NEIGHBORREPLY that arrives after its request was abandoned must leave
// no one-way edge: an accepting replier took us into its active view, so
// we take it back while a slot is free, and otherwise tell it DISCONNECT.
func TestLateNeighborReplyTakenOrRefused(t *testing.T) {
	n, env := newTestNode(1)
	n.Deliver(10, &msg.Message{Type: msg.Neighbor, Sender: 10, Priority: msg.HighPriority})
	env.take()

	n.Deliver(51, &msg.Message{Type: msg.NeighborReply, Sender: 51, Accept: false})
	if n.ActiveContains(51) || len(env.take()) != 0 {
		t.Error("a late rejection changed the view or sent something")
	}

	n.Deliver(50, &msg.Message{Type: msg.NeighborReply, Sender: 50, Accept: true})
	if !n.ActiveContains(50) || !env.watched[50] {
		t.Fatal("late acceptance with a free slot did not take the replier")
	}
	if _, ok := env.lastOfType(msg.Disconnect); ok {
		t.Error("late acceptance with a free slot sent DISCONNECT")
	}

	for i := id.ID(20); !n.active.Full(); i++ {
		n.Deliver(i, &msg.Message{Type: msg.Neighbor, Sender: i, Priority: msg.HighPriority})
	}
	before := n.Active()
	env.take()
	n.Deliver(60, &msg.Message{Type: msg.NeighborReply, Sender: 60, Accept: true})
	if got := n.Active(); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Errorf("late acceptance into a full view changed it: %v, was %v", got, before)
	}
	sent := env.take()
	if len(sent) != 1 || sent[0].to != 60 || sent[0].m.Type != msg.Disconnect {
		t.Errorf("late acceptance into a full view sent %+v, want one DISCONNECT to n60", sent)
	}
}

// A NEIGHBOR request lost on the way (or whose reply was lost) to a live
// candidate must not wedge repair: the next cycle abandons it, keeps the
// candidate in the passive view, and asks another one.
func TestLostNeighborRequestAbandonedNextCycle(t *testing.T) {
	n, env := newTestNode(1)
	n.Deliver(10, &msg.Message{Type: msg.Neighbor, Sender: 10, Priority: msg.HighPriority})
	n.Deliver(11, &msg.Message{Type: msg.Neighbor, Sender: 11, Priority: msg.HighPriority})
	n.addPassive(20)
	n.addPassive(21)
	env.take()

	n.OnPeerDown(10)
	first := n.pendingNeighbor
	if first != 20 && first != 21 {
		t.Fatalf("pending = %v, want a passive candidate", first)
	}
	env.take() // the request is lost; no reply ever comes

	n.OnCycle()
	if !n.PassiveContains(first) {
		t.Error("live abandoned candidate evicted from the passive view")
	}
	s, ok := env.lastOfType(msg.Neighbor)
	if !ok || s.to == first {
		t.Fatalf("next cycle did not ask another candidate: %+v", env.sent)
	}
	if n.pendingNeighbor != s.to {
		t.Errorf("pending = %v, want the new candidate %v", n.pendingNeighbor, s.to)
	}
}

func TestShuffleInitiation(t *testing.T) {
	n, env := newTestNode(1)
	for _, m := range []id.ID{10, 11, 12} {
		n.Deliver(m, &msg.Message{Type: msg.Neighbor, Sender: m, Priority: msg.HighPriority})
	}
	for i := id.ID(30); i < 40; i++ {
		n.addPassive(i)
	}
	env.take()

	n.OnCycle()
	s, ok := env.lastOfType(msg.Shuffle)
	if !ok {
		t.Fatal("OnCycle did not initiate a shuffle")
	}
	cfg := n.Config()
	if s.m.TTL != cfg.ShuffleTTL || s.m.Subject != 1 {
		t.Errorf("bad shuffle envelope: %+v", s.m)
	}
	wantMax := 1 + cfg.ShuffleKa + cfg.ShuffleKp
	if len(s.m.Nodes) == 0 || len(s.m.Nodes) > wantMax {
		t.Errorf("shuffle list size = %d, want 1..%d", len(s.m.Nodes), wantMax)
	}
	if s.m.Nodes[0] != 1 {
		t.Error("shuffle list must start with the initiator's own id")
	}
}

func TestShuffleRelayedWhileTTLLives(t *testing.T) {
	n, env := newTestNode(1)
	for _, m := range []id.ID{10, 11} {
		n.Deliver(m, &msg.Message{Type: msg.Neighbor, Sender: m, Priority: msg.HighPriority})
	}
	env.take()
	n.Deliver(10, &msg.Message{
		Type: msg.Shuffle, Sender: 10, Subject: 7, TTL: 5, Nodes: []id.ID{7, 8},
	})
	s, ok := env.lastOfType(msg.Shuffle)
	if !ok {
		t.Fatal("shuffle with live TTL not relayed")
	}
	if s.to == 10 || s.m.TTL != 4 || s.m.Sender != 1 {
		t.Errorf("bad relay: %+v", s)
	}
	if _, replied := env.lastOfType(msg.ShuffleReply); replied {
		t.Error("relay also replied")
	}
}

func TestShuffleAcceptedAtTTLExhaustion(t *testing.T) {
	n, env := newTestNode(1)
	for _, m := range []id.ID{10, 11} {
		n.Deliver(m, &msg.Message{Type: msg.Neighbor, Sender: m, Priority: msg.HighPriority})
	}
	for i := id.ID(30); i < 36; i++ {
		n.addPassive(i)
	}
	env.take()

	n.Deliver(10, &msg.Message{
		Type: msg.Shuffle, Sender: 10, Subject: 7, TTL: 1, Nodes: []id.ID{7, 8, 9},
	})
	s, ok := env.lastOfType(msg.ShuffleReply)
	if !ok {
		t.Fatal("exhausted shuffle not answered")
	}
	if s.to != 7 {
		t.Errorf("SHUFFLEREPLY sent to %v, want the origin n7", s.to)
	}
	if len(s.m.Nodes) != 3 {
		t.Errorf("reply size = %d, want equal to request size 3", len(s.m.Nodes))
	}
	// Received identifiers must have been integrated.
	if !n.PassiveContains(7) || !n.PassiveContains(8) || !n.PassiveContains(9) {
		t.Error("shuffle contents not integrated into passive view")
	}
}

func TestShuffleOwnWalkDropped(t *testing.T) {
	n, env := newTestNode(1)
	n.Deliver(10, &msg.Message{Type: msg.Neighbor, Sender: 10, Priority: msg.HighPriority})
	env.take()
	n.Deliver(10, &msg.Message{
		Type: msg.Shuffle, Sender: 10, Subject: 1, TTL: 3, Nodes: []id.ID{1},
	})
	if len(env.take()) != 0 {
		t.Error("own shuffle walk was processed")
	}
}

func TestShuffleIntegrationSkipsKnownIDs(t *testing.T) {
	n, env := newTestNode(1)
	n.Deliver(10, &msg.Message{Type: msg.Neighbor, Sender: 10, Priority: msg.HighPriority})
	env.take()
	n.addPassive(30)
	n.integrateShuffle([]id.ID{1, 10, 30, 40}, nil)
	if n.PassiveContains(1) {
		t.Error("own id integrated")
	}
	if n.PassiveContains(10) {
		t.Error("active member duplicated into passive view")
	}
	if !n.PassiveContains(40) {
		t.Error("fresh id not integrated")
	}
}

func TestShuffleIntegrationPrefersEvictingSent(t *testing.T) {
	n, _ := newTestNode(1)
	cfg := n.Config()
	// Fill the passive view to capacity.
	for i := 0; i < cfg.PassiveSize; i++ {
		n.addPassive(id.ID(100 + i))
	}
	sent := []id.ID{100, 101, 102}
	n.integrateShuffle([]id.ID{200, 201, 202}, sent)
	for _, fresh := range []id.ID{200, 201, 202} {
		if !n.PassiveContains(fresh) {
			t.Errorf("fresh id %v not integrated", fresh)
		}
	}
	gone := 0
	for _, s := range sent {
		if !n.PassiveContains(s) {
			gone++
		}
	}
	if gone != 3 {
		t.Errorf("evicted %d sent ids, want 3", gone)
	}
	if got := len(n.Passive()); got != cfg.PassiveSize {
		t.Errorf("passive size = %d, want %d", got, cfg.PassiveSize)
	}
}

func TestOnCycleClearsDeadPendingNeighbor(t *testing.T) {
	n, env := newTestNode(1)
	n.Deliver(10, &msg.Message{Type: msg.Neighbor, Sender: 10, Priority: msg.HighPriority})
	n.Deliver(11, &msg.Message{Type: msg.Neighbor, Sender: 11, Priority: msg.HighPriority})
	n.addPassive(20)
	env.take()
	n.OnPeerDown(10) // sends NEIGHBOR to 20, pending
	if n.pendingNeighbor != 20 {
		t.Fatalf("pending = %v, want n20", n.pendingNeighbor)
	}
	env.down[20] = true // candidate dies before replying
	n.OnCycle()
	if n.pendingNeighbor == 20 {
		t.Error("dead pending candidate not cleared")
	}
	if n.PassiveContains(20) {
		t.Error("dead pending candidate not purged from passive view")
	}
}

func TestGossipTargetsExcludesSender(t *testing.T) {
	n, _ := newTestNode(1)
	for _, m := range []id.ID{10, 11, 12} {
		n.Deliver(m, &msg.Message{Type: msg.Neighbor, Sender: m, Priority: msg.HighPriority})
	}
	targets := n.GossipTargets(0, 11)
	if len(targets) != 2 {
		t.Fatalf("targets = %v, want 2 members", targets)
	}
	for _, tgt := range targets {
		if tgt == 11 {
			t.Error("sender included in flood targets")
		}
	}
}

func TestViewsStayDisjointAndBounded(t *testing.T) {
	// Fuzz the node with a pseudo-random message stream and check the §4
	// structural invariants after every delivery.
	n, env := newTestNode(1)
	r := rng.New(7)
	cfg := n.Config()
	types := []msg.Type{msg.Join, msg.ForwardJoin, msg.Disconnect, msg.Neighbor,
		msg.NeighborReply, msg.Shuffle, msg.ShuffleReply}
	for i := 0; i < 5000; i++ {
		from := id.ID(r.Intn(40) + 2)
		mt := types[r.Intn(len(types))]
		m := msg.Message{
			Type:     mt,
			Sender:   from,
			Subject:  id.ID(r.Intn(40) + 2),
			TTL:      uint8(r.Intn(8)),
			Priority: msg.Priority(r.Intn(2) + 1),
			Accept:   r.Bool(),
		}
		if mt == msg.Shuffle || mt == msg.ShuffleReply {
			for k := 0; k < r.Intn(8); k++ {
				m.Nodes = append(m.Nodes, id.ID(r.Intn(40)+2))
			}
		}
		// Occasionally mark peers dead/alive and fire failure/cycle events.
		if r.Intn(10) == 0 {
			env.down[id.ID(r.Intn(40)+2)] = r.Bool()
		}
		switch r.Intn(20) {
		case 0:
			n.OnPeerDown(id.ID(r.Intn(40) + 2))
		case 1:
			n.OnCycle()
		}
		n.Deliver(from, &m)
		env.take()

		if got := len(n.Active()); got > cfg.ActiveSize {
			t.Fatalf("step %d: active view overflow: %d", i, got)
		}
		if got := len(n.Passive()); got > cfg.PassiveSize {
			t.Fatalf("step %d: passive view overflow: %d", i, got)
		}
		if n.ActiveContains(1) || n.PassiveContains(1) {
			t.Fatalf("step %d: self entered a view", i)
		}
		for _, a := range n.Active() {
			if n.PassiveContains(a) {
				t.Fatalf("step %d: %v in both views", i, a)
			}
		}
	}
}

func TestDisablePriorityRejectsEvenHigh(t *testing.T) {
	env := newFakeEnv(1)
	n := New(env, Config{DisablePriority: true})
	for i := id.ID(10); i < id.ID(10+uint64(n.Config().ActiveSize)); i++ {
		n.Deliver(i, &msg.Message{Type: msg.Neighbor, Sender: i, Priority: msg.HighPriority})
	}
	env.take()
	n.Deliver(99, &msg.Message{Type: msg.Neighbor, Sender: 99, Priority: msg.HighPriority})
	if n.ActiveContains(99) {
		t.Error("priority mechanism disabled but high-priority request evicted a member")
	}
}

func TestStatsProgression(t *testing.T) {
	n, env := newTestNode(1)
	n.Deliver(10, &msg.Message{Type: msg.Join, Sender: 10})
	n.Deliver(10, &msg.Message{Type: msg.ForwardJoin, Sender: 10, Subject: 20, TTL: 0})
	n.Deliver(10, &msg.Message{Type: msg.Disconnect, Sender: 10})
	env.take()
	st := n.Stats()
	if st.JoinsHandled != 1 || st.ForwardJoins != 1 || st.Disconnects != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAccessors(t *testing.T) {
	n, _ := newTestNode(7)
	if n.Self() != 7 {
		t.Error("Self wrong")
	}
	n.Deliver(10, &msg.Message{Type: msg.Neighbor, Sender: 10, Priority: msg.HighPriority})
	nb := n.Neighbors()
	if len(nb) != 1 || nb[0] != 10 {
		t.Errorf("Neighbors = %v", nb)
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	env := newFakeEnv(1)
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config did not panic")
		}
	}()
	New(env, Config{ActiveSize: 2, PassiveSize: 30, ARWL: 2, PRWL: 6, ShuffleKa: 1, ShuffleKp: 1, ShuffleTTL: 1})
}

func TestForwardJoinDeadRelayFallsBackToAccept(t *testing.T) {
	n, env := newTestNode(1)
	// Two active members; the only relay option (not the sender) is dead.
	n.Deliver(10, &msg.Message{Type: msg.Neighbor, Sender: 10, Priority: msg.HighPriority})
	n.Deliver(11, &msg.Message{Type: msg.Neighbor, Sender: 11, Priority: msg.HighPriority})
	env.down[11] = true
	env.take()
	n.Deliver(10, &msg.Message{Type: msg.ForwardJoin, Sender: 10, Subject: 99, TTL: 5})
	if !n.ActiveContains(99) {
		t.Error("joiner dropped when the relay was dead; must be accepted locally")
	}
	if n.ActiveContains(11) {
		t.Error("dead relay not purged from active view")
	}
}

func TestJoinRelayFailureTriggersPeerDown(t *testing.T) {
	n, env := newTestNode(1)
	n.Deliver(10, &msg.Message{Type: msg.Neighbor, Sender: 10, Priority: msg.HighPriority})
	n.Deliver(11, &msg.Message{Type: msg.Neighbor, Sender: 11, Priority: msg.HighPriority})
	env.down[11] = true
	env.take()
	// JOIN fans FORWARDJOIN to 10 and 11; the send to 11 fails and must
	// purge it reactively (sendOrFail path).
	n.Deliver(99, &msg.Message{Type: msg.Join, Sender: 99})
	if n.ActiveContains(11) {
		t.Error("dead fan-out target kept in active view")
	}
	if n.Stats().PeerFailures == 0 {
		t.Error("PeerFailures not counted")
	}
}

func TestConnectToDeadJoinerHasNoEffect(t *testing.T) {
	n, env := newTestNode(1)
	n.Deliver(10, &msg.Message{Type: msg.Neighbor, Sender: 10, Priority: msg.HighPriority})
	env.down[99] = true
	env.take()
	n.Deliver(10, &msg.Message{Type: msg.ForwardJoin, Sender: 10, Subject: 99, TTL: 0})
	if n.ActiveContains(99) {
		t.Error("dead joiner entered active view")
	}
}

func TestShuffleReplyToDeadOriginIgnored(t *testing.T) {
	n, env := newTestNode(1)
	n.Deliver(10, &msg.Message{Type: msg.Neighbor, Sender: 10, Priority: msg.HighPriority})
	env.down[7] = true // the walk origin is dead
	env.take()
	n.Deliver(10, &msg.Message{
		Type: msg.Shuffle, Sender: 10, Subject: 7, TTL: 0, Nodes: []id.ID{7, 8},
	})
	// Exchange contents are still integrated locally even if the reply to
	// the origin could not be delivered.
	if !n.PassiveContains(8) {
		t.Error("shuffle contents lost when origin dead")
	}
}

func TestDisconnectFromUnknownPeerIgnored(t *testing.T) {
	n, env := newTestNode(1)
	n.Deliver(50, &msg.Message{Type: msg.Disconnect, Sender: 50})
	if len(env.take()) != 0 || n.Stats().Disconnects != 0 {
		t.Error("DISCONNECT from a non-neighbor had effects")
	}
}

func TestUnknownMessageTypeIgnored(t *testing.T) {
	n, env := newTestNode(1)
	n.Deliver(50, &msg.Message{Type: msg.Gossip, Sender: 50}) // gossip layer's job
	n.Deliver(50, &msg.Message{Type: msg.Type(200), Sender: 50})
	if len(env.take()) != 0 {
		t.Error("unknown message produced traffic")
	}
}

func TestRepairDoesNotRunWhenActiveFull(t *testing.T) {
	n, env := newTestNode(1)
	for i := id.ID(10); i < id.ID(10+uint64(n.Config().ActiveSize)); i++ {
		n.Deliver(i, &msg.Message{Type: msg.Neighbor, Sender: i, Priority: msg.HighPriority})
	}
	n.addPassive(50)
	env.take()
	n.startRepair()
	if _, ok := env.lastOfType(msg.Neighbor); ok {
		t.Error("repair attempted with a full active view")
	}
}

func TestRepairEpisodeResetsEachCycle(t *testing.T) {
	// Regression: a node whose every passive candidate rejected once must
	// not give up forever — the next cycle retries (the candidate's view
	// may have freed up meanwhile).
	n, env := newTestNode(1)
	n.Deliver(10, &msg.Message{Type: msg.Neighbor, Sender: 10, Priority: msg.HighPriority})
	n.Deliver(11, &msg.Message{Type: msg.Neighbor, Sender: 11, Priority: msg.HighPriority})
	n.addPassive(20) // the only candidate
	env.take()

	n.OnPeerDown(10) // free slot -> low-priority NEIGHBOR to 20
	first, ok := env.lastOfType(msg.Neighbor)
	if !ok || first.to != 20 {
		t.Fatalf("setup: %+v", env.sent)
	}
	env.take()
	// 20 rejects; the episode exhausts (no other candidates).
	n.Deliver(20, &msg.Message{Type: msg.NeighborReply, Sender: 20, Accept: false})
	if _, retried := env.lastOfType(msg.Neighbor); retried {
		t.Fatal("exhausted episode still retried within the same event")
	}
	env.take()
	// Next cycle: 20 must be asked again.
	n.OnCycle()
	if s, ok := env.lastOfType(msg.Neighbor); !ok || s.to != 20 {
		t.Errorf("candidate not retried on the next cycle: %+v", env.sent)
	}
}
