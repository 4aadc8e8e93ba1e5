package cyclon

import (
	"fmt"
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/peer/peertest"
	"hyparview/internal/rng"
)

// fakeEnv is a scriptable peer.Env (mirrors the one in package core's tests).
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

func newFakeEnv(self id.ID) *fakeEnv {
	return &fakeEnv{self: self, rand: rng.New(uint64(self) + 77), down: make(map[id.ID]bool)}
}

var _ peer.Env = (*fakeEnv)(nil)

func (e *fakeEnv) Self() id.ID     { return e.self }
func (e *fakeEnv) Rand() *rng.Rand { return e.rand }
func (e *fakeEnv) Watch(id.ID)     {}
func (e *fakeEnv) Unwatch(id.ID)   {}

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

func (e *fakeEnv) take() []sentMsg {
	out := e.sent
	e.sent = nil
	return out
}

func newTestNode(self id.ID, cfg Config) (*Node, *fakeEnv) {
	env := newFakeEnv(self)
	return New(env, cfg), env
}

// seedView fills the node's view directly.
func seedView(n *Node, ids ...id.ID) {
	for _, x := range ids {
		n.insert(msg.Entry{Node: x})
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		give    Config
		wantErr bool
	}{
		{name: "defaults", give: DefaultConfig(), wantErr: false},
		{name: "acked", give: AckedConfig(), wantErr: false},
		{name: "zero view", give: Config{ViewSize: 0, ShuffleLen: 1, JoinTTL: 1}, wantErr: true},
		{name: "shuffle exceeds view", give: Config{ViewSize: 5, ShuffleLen: 6, JoinTTL: 1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.give.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestAckedConfigDetectsFailures(t *testing.T) {
	if !AckedConfig().DetectFailures {
		t.Error("AckedConfig must enable failure detection")
	}
	if DefaultConfig().DetectFailures {
		t.Error("DefaultConfig must not detect failures")
	}
}

func TestJoinSendsRequestAndLinksContact(t *testing.T) {
	n, env := newTestNode(1, Config{})
	if err := n.Join(2); err != nil {
		t.Fatal(err)
	}
	if got := n.Neighbors(); len(got) != 1 || got[0] != 2 {
		t.Errorf("Neighbors = %v, want [n2]", got)
	}
	sent := env.take()
	if len(sent) != 1 || sent[0].m.Type != msg.Join {
		t.Errorf("sent = %+v", sent)
	}
}

func TestHandleJoinLaunchesWalks(t *testing.T) {
	n, env := newTestNode(1, Config{ViewSize: 8, ShuffleLen: 4, JoinTTL: 5})
	seedView(n, 10, 11, 12)
	n.Deliver(99, &msg.Message{Type: msg.Join, Sender: 99, Subject: 99})
	walks := 0
	for _, s := range env.take() {
		if s.m.Type == msg.CyclonJoinWalk {
			walks++
			if s.m.Subject != 99 || s.m.TTL != n.cfg.JoinTTL {
				t.Errorf("bad walk: %+v", s.m)
			}
		}
	}
	if walks != 8 {
		t.Errorf("walks = %d, want ViewSize=8", walks)
	}
}

func TestJoinWalkForwardsWhileTTLLives(t *testing.T) {
	n, env := newTestNode(1, Config{})
	seedView(n, 10, 11)
	n.Deliver(10, &msg.Message{Type: msg.CyclonJoinWalk, Sender: 10, Subject: 99, TTL: 3})
	sent := env.take()
	if len(sent) != 1 || sent[0].m.Type != msg.CyclonJoinWalk || sent[0].m.TTL != 2 {
		t.Errorf("walk not forwarded: %+v", sent)
	}
	if n.has(99) {
		t.Error("walker node adopted joiner before TTL expiry")
	}
}

func TestJoinWalkEndSwapsEntry(t *testing.T) {
	cfg := Config{ViewSize: 3, ShuffleLen: 2, JoinTTL: 5}
	n, env := newTestNode(1, cfg)
	seedView(n, 10, 11, 12) // full view
	n.Deliver(10, &msg.Message{Type: msg.CyclonJoinWalk, Sender: 10, Subject: 99, TTL: 0})
	if !n.has(99) {
		t.Fatal("walk end did not adopt joiner")
	}
	if len(n.View()) != 3 {
		t.Errorf("view size changed: %d", len(n.View()))
	}
	// The displaced entry must be gifted to the joiner.
	sent := env.take()
	if len(sent) != 1 || sent[0].to != 99 || sent[0].m.Type != msg.CyclonShuffleReply {
		t.Fatalf("no gift to joiner: %+v", sent)
	}
	if len(sent[0].m.Entries) == 0 {
		t.Error("gift contains no entries")
	}
}

func TestJoinWalkPreservesInDegree(t *testing.T) {
	// Across a walk-end swap the total in-degree stays constant: the
	// victim's reference moves to the joiner, and the victim is re-referenced
	// by the joiner.
	cfg := Config{ViewSize: 2, ShuffleLen: 2, JoinTTL: 5}
	n, env := newTestNode(1, cfg)
	seedView(n, 10, 11)
	n.Deliver(10, &msg.Message{Type: msg.CyclonJoinWalk, Sender: 10, Subject: 99, TTL: 0})
	sent := env.take()
	if len(sent) != 1 {
		t.Fatalf("want 1 gift message, got %d", len(sent))
	}
	gift := sent[0].m.Entries
	// n now references 99 and one old entry; the other old entry + self are in the gift.
	refs := map[id.ID]int{}
	for _, e := range n.View() {
		refs[e.Node]++
	}
	for _, e := range gift {
		refs[e.Node]++
	}
	if refs[10]+refs[11] != 2 {
		t.Errorf("old entries lost or duplicated: view=%v gift=%v", n.View(), gift)
	}
}

func TestOnCycleShufflesWithOldest(t *testing.T) {
	n, env := newTestNode(1, Config{ViewSize: 5, ShuffleLen: 3, JoinTTL: 5})
	n.insert(msg.Entry{Node: 10, Age: 0})
	n.insert(msg.Entry{Node: 11, Age: 7}) // oldest
	n.insert(msg.Entry{Node: 12, Age: 2})
	n.OnCycle()
	sent := env.take()
	if len(sent) != 1 || sent[0].m.Type != msg.CyclonShuffle {
		t.Fatalf("sent = %+v", sent)
	}
	if sent[0].to != 11 {
		t.Errorf("shuffle target = %v, want oldest n11", sent[0].to)
	}
	if n.has(11) {
		t.Error("oldest entry not removed at shuffle initiation")
	}
	// First entry must be the initiator with age 0.
	if es := sent[0].m.Entries; len(es) == 0 || es[0].Node != 1 || es[0].Age != 0 {
		t.Errorf("first entry = %+v, want self age 0", sent[0].m.Entries)
	}
	// Ages of remaining entries incremented.
	for _, e := range n.View() {
		if e.Node == 10 && e.Age != 1 {
			t.Errorf("entry 10 age = %d, want 1", e.Age)
		}
	}
}

func TestOnCycleWithDeadOldestLosesShuffle(t *testing.T) {
	n, env := newTestNode(1, Config{})
	n.insert(msg.Entry{Node: 10, Age: 9})
	n.insert(msg.Entry{Node: 11, Age: 0})
	env.down[10] = true
	n.OnCycle()
	if n.has(10) {
		t.Error("dead oldest entry survived the shuffle attempt")
	}
	if len(env.take()) != 0 {
		t.Error("messages sent despite dead target")
	}
	if n.Stats().ShufflesLost != 1 {
		t.Errorf("ShufflesLost = %d, want 1", n.Stats().ShufflesLost)
	}
}

func TestHandleShuffleRepliesAndIntegrates(t *testing.T) {
	n, env := newTestNode(1, Config{ViewSize: 10, ShuffleLen: 3, JoinTTL: 5})
	seedView(n, 10, 11, 12)
	n.Deliver(20, &msg.Message{
		Type:    msg.CyclonShuffle,
		Sender:  20,
		Entries: []msg.Entry{{Node: 20, Age: 0}, {Node: 21, Age: 4}},
	})
	sent := env.take()
	if len(sent) != 1 || sent[0].to != 20 || sent[0].m.Type != msg.CyclonShuffleReply {
		t.Fatalf("no reply: %+v", sent)
	}
	if len(sent[0].m.Entries) > 3 {
		t.Errorf("reply larger than ShuffleLen: %d", len(sent[0].m.Entries))
	}
	if !n.has(20) || !n.has(21) {
		t.Error("received entries not integrated")
	}
}

func TestIntegrateDuplicateKeepsYoungerAge(t *testing.T) {
	n, _ := newTestNode(1, Config{})
	n.insert(msg.Entry{Node: 10, Age: 9})
	n.integrate([]msg.Entry{{Node: 10, Age: 2}}, nil)
	for _, e := range n.View() {
		if e.Node == 10 && e.Age != 2 {
			t.Errorf("age = %d, want 2 (younger wins)", e.Age)
		}
	}
	if len(n.View()) != 1 {
		t.Error("duplicate created a second entry")
	}
}

func TestIntegrateSkipsSelf(t *testing.T) {
	n, _ := newTestNode(1, Config{})
	n.integrate([]msg.Entry{{Node: 1, Age: 0}}, nil)
	if n.has(1) {
		t.Error("own identifier integrated")
	}
}

func TestIntegrateFullViewReplacesSentFirst(t *testing.T) {
	cfg := Config{ViewSize: 3, ShuffleLen: 3, JoinTTL: 5}
	n, _ := newTestNode(1, cfg)
	seedView(n, 10, 11, 12)
	n.integrate(
		[]msg.Entry{{Node: 20}, {Node: 21}},
		[]msg.Entry{{Node: 10}, {Node: 11}},
	)
	if !n.has(20) || !n.has(21) {
		t.Error("received entries not integrated")
	}
	if n.has(10) || n.has(11) {
		t.Error("sent entries not replaced first")
	}
	if !n.has(12) {
		t.Error("unrelated entry evicted although sent entries were available")
	}
	if len(n.View()) != 3 {
		t.Errorf("view size = %d, want 3", len(n.View()))
	}
}

func TestViewNeverExceedsCapacity(t *testing.T) {
	cfg := Config{ViewSize: 4, ShuffleLen: 4, JoinTTL: 3}
	n, _ := newTestNode(1, cfg)
	r := rng.New(5)
	for i := 0; i < 2000; i++ {
		var es []msg.Entry
		for k := 0; k < r.Intn(6); k++ {
			es = append(es, msg.Entry{Node: id.ID(r.Intn(50) + 2), Age: uint16(r.Intn(10))})
		}
		switch r.Intn(3) {
		case 0:
			n.integrate(es, nil)
		case 1:
			n.Deliver(id.ID(r.Intn(50)+2), &msg.Message{Type: msg.CyclonShuffle, Sender: id.ID(r.Intn(50) + 2), Entries: es})
		case 2:
			n.OnCycle()
		}
		if len(n.View()) > cfg.ViewSize {
			t.Fatalf("step %d: view overflow %d", i, len(n.View()))
		}
		for _, e := range n.View() {
			if e.Node == 1 {
				t.Fatalf("step %d: self in view", i)
			}
		}
	}
}

func TestOnPeerDownRespectsDetectFlag(t *testing.T) {
	plain, _ := newTestNode(1, DefaultConfig())
	seedView(plain, 10)
	plain.OnPeerDown(10)
	if !plain.has(10) {
		t.Error("plain Cyclon purged an entry on failure")
	}

	acked, _ := newTestNode(2, AckedConfig())
	seedView(acked, 10)
	acked.OnPeerDown(10)
	if acked.has(10) {
		t.Error("CyclonAcked kept a detected-failed entry")
	}
	if acked.Stats().EntriesPurged != 1 {
		t.Errorf("EntriesPurged = %d, want 1", acked.Stats().EntriesPurged)
	}
}

func TestGossipTargetsDistinctAndExcluding(t *testing.T) {
	n, _ := newTestNode(1, Config{})
	seedView(n, 10, 11, 12, 13, 14)
	for trial := 0; trial < 100; trial++ {
		ts := n.GossipTargets(3, 12)
		if len(ts) != 3 {
			t.Fatalf("targets = %v, want 3", ts)
		}
		seen := map[id.ID]bool{}
		for _, x := range ts {
			if x == 12 || seen[x] {
				t.Fatalf("bad targets %v", ts)
			}
			seen[x] = true
		}
	}
	// Fanout larger than the view: everything except the excluded node.
	if ts := n.GossipTargets(99, 12); len(ts) != 4 {
		t.Errorf("targets = %v, want all 4 others", ts)
	}
}

// has reports whether node is in the view (test helper).
func (n *Node) has(node id.ID) bool {
	_, ok := n.present[node]
	return ok
}

func TestShuffleReplyIntegratesAgainstLastSent(t *testing.T) {
	cfg := Config{ViewSize: 4, ShuffleLen: 3, JoinTTL: 5}
	n, env := newTestNode(1, cfg)
	// View full with an old entry so OnCycle shuffles deterministically.
	n.insert(msg.Entry{Node: 10, Age: 5})
	n.insert(msg.Entry{Node: 11, Age: 0})
	n.insert(msg.Entry{Node: 12, Age: 0})
	n.insert(msg.Entry{Node: 13, Age: 0})
	n.OnCycle() // shuffles with oldest (10), records lastSent
	sent := env.take()
	if len(sent) != 1 || sent[0].to != 10 {
		t.Fatalf("setup: %+v", sent)
	}
	// The reply brings fresh entries; the view must absorb them without
	// exceeding capacity, preferring to replace what was sent.
	n.Deliver(10, &msg.Message{
		Type:    msg.CyclonShuffleReply,
		Sender:  10,
		Entries: []msg.Entry{{Node: 20}, {Node: 21}, {Node: 22}},
	})
	if !n.has(20) || !n.has(21) {
		t.Error("reply entries not integrated")
	}
	if len(n.View()) > cfg.ViewSize {
		t.Errorf("view overflow: %d", len(n.View()))
	}
	// A second, duplicate reply must not be re-integrated against stale
	// lastSent bookkeeping (it was cleared).
	viewBefore := len(n.View())
	n.Deliver(10, &msg.Message{
		Type:    msg.CyclonShuffleReply,
		Sender:  10,
		Entries: []msg.Entry{{Node: 20}},
	})
	if len(n.View()) > cfg.ViewSize || len(n.View()) < viewBefore {
		t.Errorf("duplicate reply corrupted view: %d", len(n.View()))
	}
}

func TestSelfAccessor(t *testing.T) {
	n, _ := newTestNode(42, Config{})
	if n.Self() != 42 {
		t.Error("Self() wrong")
	}
}

func TestJoinSelfNoop(t *testing.T) {
	n, env := newTestNode(1, Config{})
	if err := n.Join(1); err != nil {
		t.Fatal(err)
	}
	if len(env.take()) != 0 || len(n.View()) != 0 {
		t.Error("self-join had effects")
	}
}

func TestAgingMonotoneUntilExchanged(t *testing.T) {
	// Property: an entry that is never exchanged ages by exactly one per
	// cycle until it becomes the oldest and is shuffled out.
	n, env := newTestNode(1, Config{ViewSize: 4, ShuffleLen: 2, JoinTTL: 3})
	n.insert(msg.Entry{Node: 10, Age: 0})
	n.insert(msg.Entry{Node: 11, Age: 0})
	env.down[10] = true
	env.down[11] = true
	for cycle := 1; cycle <= 2; cycle++ {
		n.OnCycle() // shuffle target is dead, so entries only age and drop
	}
	// Both entries were oldest once each and got removed; view must be
	// empty and no message ever sent.
	if len(n.View()) != 0 {
		t.Errorf("view = %v, want empty after purging dead oldest twice", n.View())
	}
	if len(env.take()) != 0 {
		t.Error("messages sent to dead targets")
	}
}
