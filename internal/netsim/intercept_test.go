package netsim

// The fault-injection seam: Intercept observes every message delivery (after
// liveness/partition filtering, before Tap and dispatch), can suppress or
// replace it, and can re-inject copies through the hook-exempt Redeliver
// path. Timers and periodic self-events never pass through the hook — only
// wire traffic does.

import (
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
)

func TestInterceptDropSuppressesDelivery(t *testing.T) {
	s := New(1)
	addRecorder(s, 1)
	b := addRecorder(s, 2)
	s.Intercept = func(node id.ID, m *msg.Message) (*msg.Message, bool) {
		return nil, m.Round == 2 // deliver only round 2
	}
	for i := uint64(1); i <= 3; i++ {
		if err := s.Inject(1, 2, msg.Message{Type: msg.Gossip, Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	if len(b.got) != 1 || b.got[0].Round != 2 {
		t.Fatalf("delivered %v, want only round 2", b.got)
	}
	st := s.Stats()
	if st.FaultDropped != 2 {
		t.Errorf("FaultDropped = %d, want 2", st.FaultDropped)
	}
	if st.Delivered != 1 {
		t.Errorf("Delivered = %d, want 1", st.Delivered)
	}
}

func TestInterceptReplacementDelivered(t *testing.T) {
	s := New(1)
	addRecorder(s, 1)
	b := addRecorder(s, 2)
	s.Intercept = func(node id.ID, m *msg.Message) (*msg.Message, bool) {
		repl := *m
		repl.Round = 99
		repl.Nodes = append([]id.ID{id.ID(7)}, m.Nodes...)
		return &repl, true
	}
	if err := s.Inject(1, 2, msg.Message{Type: msg.Shuffle, Round: 1, Nodes: []id.ID{3}}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if len(b.got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(b.got))
	}
	got := b.got[0]
	if got.Round != 99 || len(got.Nodes) != 2 || got.Nodes[0] != 7 {
		t.Errorf("tampered message not delivered intact: %+v", got)
	}
}

func TestInterceptSeesSenderAndReceiver(t *testing.T) {
	s := New(1)
	addRecorder(s, 1)
	addRecorder(s, 2)
	var sawNode id.ID
	var sawSender id.ID
	s.Intercept = func(node id.ID, m *msg.Message) (*msg.Message, bool) {
		sawNode, sawSender = node, m.Sender
		return nil, true
	}
	if err := s.Inject(1, 2, msg.Message{Type: msg.Gossip, Sender: 1}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if sawNode != 2 || sawSender != 1 {
		t.Errorf("hook saw (node=%v, sender=%v), want (2, 1)", sawNode, sawSender)
	}
}

func TestRedeliverBypassesHook(t *testing.T) {
	// A hook that duplicates every delivery through Redeliver: the copies
	// must not be re-intercepted (no exponential blowup) and must count as
	// redeliveries.
	s := New(1)
	addRecorder(s, 1)
	b := addRecorder(s, 2)
	hookCalls := 0
	s.Intercept = func(node id.ID, m *msg.Message) (*msg.Message, bool) {
		hookCalls++
		if err := s.Redeliver(m.Sender, node, *m, 0); err != nil {
			t.Fatalf("Redeliver: %v", err)
		}
		return nil, true
	}
	if err := s.Inject(1, 2, msg.Message{Type: msg.Gossip, Sender: 1, Round: 5}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if hookCalls != 1 {
		t.Errorf("hook ran %d times, want 1 (redelivery must be exempt)", hookCalls)
	}
	if len(b.got) != 2 {
		t.Errorf("deliveries = %d, want 2 (original + duplicate)", len(b.got))
	}
	if st := s.Stats(); st.Redelivered != 1 {
		t.Errorf("Redelivered = %d, want 1", st.Redelivered)
	}
}

func TestRedeliverDelayOrdersBehindTraffic(t *testing.T) {
	// A delayed redelivery fires after traffic scheduled in between: the
	// reorder fault.
	s := New(1)
	addRecorder(s, 1)
	b := addRecorder(s, 2)
	first := true
	s.Intercept = func(node id.ID, m *msg.Message) (*msg.Message, bool) {
		if first {
			first = false
			// Defer the first message by 10 ticks and suppress the original.
			if err := s.Redeliver(m.Sender, node, *m, 10); err != nil {
				t.Fatalf("Redeliver: %v", err)
			}
			return nil, false
		}
		return nil, true
	}
	_ = s.Inject(1, 2, msg.Message{Type: msg.Gossip, Sender: 1, Round: 1})
	_ = s.Inject(1, 2, msg.Message{Type: msg.Gossip, Sender: 1, Round: 2})
	s.Drain()
	if len(b.got) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(b.got))
	}
	if b.got[0].Round != 2 || b.got[1].Round != 1 {
		t.Errorf("rounds delivered in order %d,%d; want 2,1 (reorder)", b.got[0].Round, b.got[1].Round)
	}
}

func TestRedeliverToDeadNodeFails(t *testing.T) {
	s := New(1)
	addRecorder(s, 1)
	addRecorder(s, 2)
	s.Fail(2)
	if err := s.Redeliver(1, 2, msg.Message{Type: msg.Gossip}, 0); err == nil {
		t.Error("redeliver to dead node succeeded, want error")
	}
}

func TestInterceptSkipsTimers(t *testing.T) {
	// Scheduler self-events (After/Every) are not wire traffic: the hook
	// must never see them.
	s := New(1)
	a := addRecorder(s, 1)
	s.Intercept = func(node id.ID, m *msg.Message) (*msg.Message, bool) {
		t.Errorf("hook observed a timer event: %+v", *m)
		return nil, true
	}
	a.env.After(5, msg.Message{Type: msg.Tick})
	s.Drain()
	if len(a.got) != 1 {
		t.Fatalf("timer deliveries = %d, want 1", len(a.got))
	}
}

func TestInterceptHookMayGrowSlab(t *testing.T) {
	// The hook runs on a private copy of the message under inspection, so a
	// hook that schedules more redeliveries than a hold-slab chunk has slots
	// — taking the last free slots and forcing a new chunk in the middle of
	// the pre-pass, next to the slot the inspected message itself occupies —
	// must not corrupt it, nor what is delivered afterwards.
	s := New(1)
	addRecorder(s, 1)
	b := addRecorder(s, 2)
	payload := []byte{1, 2, 3, 4}
	const copies = arenaChunk + 44
	s.Intercept = func(node id.ID, m *msg.Message) (*msg.Message, bool) {
		if free := len(s.shards[0].hold); free == 0 || free >= copies {
			t.Fatalf("%d free hold slots: %d redeliveries would not grow the slab mid-hook", free, copies)
		}
		for i := 0; i < copies; i++ {
			_ = s.Redeliver(m.Sender, node, msg.Message{Type: msg.Gossip, Sender: m.Sender, Round: 1000 + uint64(i)}, 1)
		}
		if m.Round != 1 || len(m.Payload) != 4 || m.Payload[0] != 1 {
			t.Errorf("message corrupted under slab growth: %+v", *m)
		}
		return nil, true
	}
	if err := s.Inject(1, 2, msg.Message{Type: msg.Gossip, Sender: 1, Round: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if len(b.got) != copies+1 {
		t.Fatalf("deliveries = %d, want %d", len(b.got), copies+1)
	}
	if m := b.got[0]; m.Round != 1 || len(m.Payload) != 4 || m.Payload[3] != 4 {
		t.Errorf("the inspected message was delivered corrupted: %+v", m)
	}
	for i, m := range b.got[1:] {
		if m.Round != 1000+uint64(i) {
			t.Fatalf("redelivery %d has round %d, want %d", i, m.Round, 1000+i)
		}
	}
}

func TestPassThroughHookMatchesNilHookTrace(t *testing.T) {
	// A hook that passes everything through must produce the same Tap trace
	// as no hook at all: the intercepted path Taps exactly like the fast
	// path.
	run := func(hook bool) []msg.Message {
		s := New(42)
		addRecorder(s, 1)
		rb := addRecorder(s, 2)
		rb.bounceTo = 3
		addRecorder(s, 3)
		if hook {
			s.Intercept = func(id.ID, *msg.Message) (*msg.Message, bool) { return nil, true }
		}
		var trace []msg.Message
		s.Tap = func(from, to id.ID, m msg.Message) { trace = append(trace, m) }
		for i := uint64(1); i <= 10; i++ {
			_ = s.Inject(1, 2, msg.Message{Type: msg.Gossip, Sender: 1, Round: i})
		}
		s.Drain()
		return trace
	}
	plain, hooked := run(false), run(true)
	if len(plain) == 0 || len(plain) != len(hooked) {
		t.Fatalf("trace lengths differ: %d vs %d", len(plain), len(hooked))
	}
	for i := range plain {
		if plain[i].Round != hooked[i].Round || plain[i].Type != hooked[i].Type {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, plain[i], hooked[i])
		}
	}
}
