package scamp

import (
	"fmt"
	"math"
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/netsim"
	"hyparview/internal/peer"
	"hyparview/internal/peer/peertest"
	"hyparview/internal/rng"
)

// fakeEnv is a scriptable peer.Env for handler-level tests.
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
	return &fakeEnv{self: self, rand: rng.New(uint64(self) + 5), down: make(map[id.ID]bool)}
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

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		give    Config
		wantErr bool
	}{
		{name: "defaults", give: DefaultConfig().WithDefaults(), wantErr: false},
		{name: "negative c", give: Config{C: -1, ForwardTTL: 1, MaxView: 10}, wantErr: true},
		{name: "zero ttl", give: Config{C: 1, ForwardTTL: 0, MaxView: 10}, wantErr: true},
		{name: "timeout without heartbeat", give: Config{C: 1, ForwardTTL: 1, MaxView: 10, IsolationTimeout: 5}, wantErr: true},
		{name: "timeout below heartbeat", give: Config{C: 1, ForwardTTL: 1, MaxView: 10, HeartbeatEvery: 10, IsolationTimeout: 5}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.give.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestJoinAddsContactAndSubscribes(t *testing.T) {
	env := newFakeEnv(1)
	n := New(env, Config{})
	if err := n.Join(2); err != nil {
		t.Fatal(err)
	}
	if pv := n.PartialView(); len(pv) != 1 || pv[0] != 2 {
		t.Errorf("PartialView = %v, want [n2]", pv)
	}
	sent := env.take()
	if len(sent) != 1 || sent[0].m.Type != msg.ScampSubscribe {
		t.Errorf("sent = %+v", sent)
	}
}

func TestSubscribeFanoutIsViewPlusC(t *testing.T) {
	env := newFakeEnv(1)
	n := New(env, Config{C: 4})
	for _, m := range []id.ID{10, 11, 12} {
		n.partial.Add(m)
	}
	n.Deliver(99, &msg.Message{Type: msg.ScampSubscribe, Sender: 99, Subject: 99})
	fwd := 0
	for _, s := range env.take() {
		if s.m.Type == msg.ScampForwardSub {
			fwd++
			if s.m.Subject != 99 {
				t.Errorf("forwarded wrong subject: %+v", s.m)
			}
		}
	}
	if fwd != 3+4 {
		t.Errorf("forwarded %d copies, want |view|+c = 7", fwd)
	}
}

func TestSubscribeToLonelyContactKeepsDirectly(t *testing.T) {
	env := newFakeEnv(1)
	n := New(env, Config{})
	n.Deliver(99, &msg.Message{Type: msg.ScampSubscribe, Sender: 99, Subject: 99})
	if pv := n.PartialView(); len(pv) != 1 || pv[0] != 99 {
		t.Errorf("PartialView = %v, want [n99]", pv)
	}
	// Keeping must notify the subscriber for its InView.
	sent := env.take()
	if len(sent) != 1 || sent[0].m.Type != msg.ScampKept || sent[0].to != 99 {
		t.Errorf("sent = %+v, want ScampKept to n99", sent)
	}
}

func TestForwardSubTTLGuardKeeps(t *testing.T) {
	env := newFakeEnv(1)
	n := New(env, Config{})
	n.partial.Add(10)
	n.Deliver(10, &msg.Message{Type: msg.ScampForwardSub, Sender: 10, Subject: 99, TTL: 1})
	if !n.partial.Contains(99) {
		t.Error("TTL-exhausted subscription dropped instead of kept")
	}
}

func TestForwardSubNeverKeepsSelfOrDup(t *testing.T) {
	env := newFakeEnv(1)
	n := New(env, Config{})
	n.partial.Add(99)
	for i := 0; i < 50; i++ {
		n.Deliver(10, &msg.Message{Type: msg.ScampForwardSub, Sender: 10, Subject: 99, TTL: 1})
		n.Deliver(10, &msg.Message{Type: msg.ScampForwardSub, Sender: 10, Subject: 1, TTL: 1})
	}
	env.take()
	count := 0
	n.partial.ForEach(func(m id.ID) {
		if m == 99 {
			count++
		}
		if m == 1 {
			t.Fatal("kept own id")
		}
	})
	if count != 1 {
		t.Errorf("duplicate subscription kept %d times", count)
	}
}

func TestKeptUpdatesInView(t *testing.T) {
	env := newFakeEnv(1)
	n := New(env, Config{})
	n.Deliver(42, &msg.Message{Type: msg.ScampKept, Sender: 42})
	if iv := n.InView(); len(iv) != 1 || iv[0] != 42 {
		t.Errorf("InView = %v, want [n42]", iv)
	}
}

func TestHeartbeatsSentAndConsumed(t *testing.T) {
	env := newFakeEnv(1)
	n := New(env, Config{HeartbeatEvery: 2, IsolationTimeout: 6})
	n.partial.Add(10)
	n.OnCycle() // cycle 1: no heartbeat yet
	if len(env.take()) != 0 {
		t.Error("heartbeat sent off-schedule")
	}
	n.OnCycle() // cycle 2: heartbeat due
	sent := env.take()
	if len(sent) != 1 || sent[0].m.Type != msg.ScampHeartbeat || sent[0].to != 10 {
		t.Errorf("sent = %+v, want heartbeat to n10", sent)
	}
	// Receiving a heartbeat refreshes lastHeard.
	n.Deliver(10, &msg.Message{Type: msg.ScampHeartbeat, Sender: 10})
	if n.lastHeard != n.cycle {
		t.Error("heartbeat did not refresh lastHeard")
	}
}

func TestIsolationTriggersResubscription(t *testing.T) {
	env := newFakeEnv(1)
	n := New(env, Config{HeartbeatEvery: 2, IsolationTimeout: 3})
	n.partial.Add(10)
	for i := 0; i < 4; i++ {
		n.OnCycle()
	}
	resub := false
	for _, s := range env.take() {
		if s.m.Type == msg.ScampSubscribe {
			resub = true
		}
	}
	if !resub {
		t.Error("isolated node did not re-subscribe")
	}
	if n.Stats().IsolationEvents == 0 {
		t.Error("isolation event not counted")
	}
}

func TestLeaseResubscription(t *testing.T) {
	env := newFakeEnv(1)
	n := New(env, Config{LeaseCycles: 3})
	n.partial.Add(10)
	for i := 0; i < 9; i++ {
		n.OnCycle()
		n.Deliver(10, &msg.Message{Type: msg.ScampHeartbeat, Sender: 10})
	}
	resubs := 0
	for _, s := range env.take() {
		if s.m.Type == msg.ScampSubscribe {
			resubs++
		}
	}
	if resubs != 3 {
		t.Errorf("lease resubscriptions = %d over 9 cycles with lease 3, want 3", resubs)
	}
}

func TestLeaveNotifiesInViewWithReplacements(t *testing.T) {
	env := newFakeEnv(1)
	n := New(env, Config{})
	n.partial.Add(10)
	n.inView.Add(20)
	n.inView.Add(21)
	n.Leave()
	unsubs := 0
	for _, s := range env.take() {
		if s.m.Type == msg.ScampUnsubscribe {
			unsubs++
			if len(s.m.Nodes) != 1 || s.m.Nodes[0] != 10 {
				t.Errorf("unsubscribe carries %v, want replacement [n10]", s.m.Nodes)
			}
		}
	}
	if unsubs != 2 {
		t.Errorf("unsubscribes = %d, want 2 (one per InView member)", unsubs)
	}
	if len(n.PartialView()) != 0 || len(n.InView()) != 0 {
		t.Error("Leave did not clear views")
	}
}

func TestHandleUnsubscribeAdoptsReplacement(t *testing.T) {
	env := newFakeEnv(1)
	n := New(env, Config{})
	n.partial.Add(50)
	n.Deliver(50, &msg.Message{
		Type: msg.ScampUnsubscribe, Sender: 50, Subject: 50, Nodes: []id.ID{60},
	})
	if n.partial.Contains(50) {
		t.Error("leaver still in partial view")
	}
	if !n.partial.Contains(60) {
		t.Error("replacement not adopted")
	}
}

func TestOnPeerDownIsNoop(t *testing.T) {
	env := newFakeEnv(1)
	n := New(env, Config{})
	n.partial.Add(10)
	n.OnPeerDown(10)
	if !n.partial.Contains(10) {
		t.Error("Scamp purged a view entry on send failure (it has no detector)")
	}
}

func TestGossipTargetsExcludeAndBound(t *testing.T) {
	env := newFakeEnv(1)
	n := New(env, Config{})
	for _, m := range []id.ID{10, 11, 12, 13} {
		n.partial.Add(m)
	}
	for i := 0; i < 50; i++ {
		ts := n.GossipTargets(2, 11)
		if len(ts) != 2 {
			t.Fatalf("targets = %v, want 2", ts)
		}
		for _, x := range ts {
			if x == 11 {
				t.Fatal("excluded node targeted")
			}
		}
	}
}

// TestViewSizesGrowLogarithmically reproduces SCAMP's signature property:
// mean partial view size ≈ log(n) + c after all subscriptions.
func TestViewSizesGrowLogarithmically(t *testing.T) {
	const n = 2000
	const c = 4
	s := netsim.New(42)
	nodes := make(map[id.ID]*Node, n)
	var ids []id.ID
	for i := 1; i <= n; i++ {
		nodeID := id.ID(i)
		var nd *Node
		s.Add(nodeID, func(env peer.Env) peer.Process {
			nd = New(env, Config{C: c})
			return nd
		})
		nodes[nodeID] = nd
		ids = append(ids, nodeID)
		if i > 1 {
			contact := ids[s.Rand().Intn(i-1)]
			if err := nd.Join(contact); err != nil {
				t.Fatal(err)
			}
			s.Drain()
		}
	}
	var sum float64
	for _, nd := range nodes {
		sum += float64(len(nd.PartialView()))
	}
	mean := sum / n
	want := math.Log(n) + c // ≈ 11.6
	if mean < want*0.6 || mean > want*1.8 {
		t.Errorf("mean view size = %.2f, want ≈ log(n)+c = %.2f", mean, want)
	}
}
