package peer_test

import (
	"errors"
	"fmt"
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/peer/peertest"
	"hyparview/internal/rng"
)

// memEnv is a minimal in-memory peer.Env: it records traffic and models
// failed destinations, exercising the contract every environment (netsim,
// transport) implements.
type memEnv struct {
	peertest.ManualScheduler
	self    id.ID
	rand    *rng.Rand
	down    map[id.ID]bool
	sent    []id.ID
	watched map[id.ID]bool
}

var _ peer.Env = (*memEnv)(nil)

func newMemEnv(self id.ID) *memEnv {
	return &memEnv{
		self:    self,
		rand:    rng.New(uint64(self)),
		down:    make(map[id.ID]bool),
		watched: make(map[id.ID]bool),
	}
}

func (e *memEnv) Self() id.ID     { return e.self }
func (e *memEnv) Rand() *rng.Rand { return e.rand }

func (e *memEnv) Send(dst id.ID, _ msg.Message) error {
	if e.down[dst] {
		// The contract allows wrapping, so callers must test with errors.Is.
		return fmt.Errorf("send %v->%v: %w", e.self, dst, peer.ErrPeerDown)
	}
	e.sent = append(e.sent, dst)
	return nil
}

func (e *memEnv) Probe(dst id.ID) error {
	if e.down[dst] {
		return peer.ErrPeerDown
	}
	return nil
}

func (e *memEnv) Watch(dst id.ID)   { e.watched[dst] = true }
func (e *memEnv) Unwatch(dst id.ID) { delete(e.watched, dst) }

// memMembership is a minimal in-memory peer.Membership over a fixed view.
type memMembership struct {
	view   []id.ID
	downs  []id.ID
	cycles int
}

var _ peer.Membership = (*memMembership)(nil)

func (m *memMembership) Deliver(id.ID, *msg.Message) {}
func (m *memMembership) OnCycle()                    { m.cycles++ }
func (m *memMembership) Neighbors() []id.ID          { return append([]id.ID(nil), m.view...) }
func (m *memMembership) OnPeerDown(p id.ID)          { m.downs = append(m.downs, p) }

func (m *memMembership) GossipTargets(fanout int, exclude id.ID) []id.ID {
	var out []id.ID
	for _, n := range m.view {
		if n != exclude {
			out = append(out, n)
		}
	}
	if fanout > 0 && len(out) > fanout {
		out = out[:fanout]
	}
	return out
}

func TestErrPeerDownDetectableThroughWrapping(t *testing.T) {
	env := newMemEnv(1)
	env.down[2] = true
	err := env.Send(2, msg.Message{Type: msg.Gossip})
	if err == nil {
		t.Fatal("send to failed peer succeeded")
	}
	// This is the failure-detection idiom every protocol in the repository
	// uses: identity via errors.Is regardless of wrapping.
	if !errors.Is(err, peer.ErrPeerDown) {
		t.Errorf("wrapped error not identifiable: %v", err)
	}
	if err := env.Probe(2); !errors.Is(err, peer.ErrPeerDown) {
		t.Errorf("probe of failed peer = %v, want ErrPeerDown", err)
	}
	if err := env.Probe(3); err != nil {
		t.Errorf("probe of live peer = %v, want nil", err)
	}
}

func TestEnvContractBasics(t *testing.T) {
	env := newMemEnv(7)
	if env.Self() != 7 {
		t.Errorf("Self() = %v", env.Self())
	}
	if env.Rand() == nil {
		t.Error("Rand() must return the node's private stream")
	}
	if err := env.Send(2, msg.Message{Type: msg.Gossip}); err != nil {
		t.Errorf("send to live peer failed: %v", err)
	}
	env.Watch(2)
	if !env.watched[2] {
		t.Error("Watch not registered")
	}
	env.Unwatch(2)
	if env.watched[2] {
		t.Error("Unwatch did not cancel")
	}
}

func TestMembershipContract(t *testing.T) {
	m := &memMembership{view: []id.ID{2, 3, 4}}

	// Neighbors returns a fresh slice: mutating it must not corrupt the view.
	n := m.Neighbors()
	n[0] = 99
	if m.Neighbors()[0] != 2 {
		t.Error("Neighbors() exposed internal state")
	}

	// GossipTargets excludes the arrival hop and honors the fanout bound.
	targets := m.GossipTargets(0, 3)
	if len(targets) != 2 {
		t.Errorf("flood targets = %v, want view minus excluded", targets)
	}
	for _, p := range targets {
		if p == 3 {
			t.Error("excluded peer present in gossip targets")
		}
	}
	if got := m.GossipTargets(1, 0); len(got) != 1 {
		t.Errorf("fanout-1 targets = %v, want a single peer", got)
	}

	m.OnCycle()
	if m.cycles != 1 {
		t.Error("OnCycle not counted")
	}
	m.OnPeerDown(4)
	if len(m.downs) != 1 || m.downs[0] != 4 {
		t.Errorf("downs = %v, want [n4]", m.downs)
	}
}

// failureObserver documents the optional interface an environment probes
// for with a type assertion (as netsim does) before delivering connection
// resets.
type failureObserver struct {
	memMembership
	resets []id.ID
}

func (f *failureObserver) OnPeerDown(p id.ID) { f.resets = append(f.resets, p) }

func TestFailureObserverAssertion(t *testing.T) {
	var proc interface{} = &failureObserver{}
	obs, ok := proc.(peer.FailureObserver)
	if !ok {
		t.Fatal("failureObserver does not satisfy peer.FailureObserver")
	}
	obs.OnPeerDown(9)
	if got := proc.(*failureObserver).resets; len(got) != 1 || got[0] != 9 {
		t.Errorf("resets = %v, want [n9]", got)
	}

	// A plain membership without the interface must fail the assertion:
	// environments rely on this to skip notification delivery.
	var plain interface{} = struct{ peer.Env }{}
	if _, ok := plain.(peer.FailureObserver); ok {
		t.Error("non-observer asserted as FailureObserver")
	}
}
