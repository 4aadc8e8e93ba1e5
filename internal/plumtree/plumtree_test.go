package plumtree

import (
	"fmt"
	"reflect"
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

// fakeEnv records sends; timers land on the embedded manual scheduler and
// are fired explicitly by the tests.
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

// FrozenBodies declares the fake's bodies frozen (peer.FrozenBodies): no
// test writes a payload it delivered, and sends are recorded by reference,
// so the node aliases what it retains, as in the simulator.
func (e *fakeEnv) FrozenBodies() {}

func (e *fakeEnv) Self() id.ID       { return e.self }
func (e *fakeEnv) Rand() *rng.Rand   { return e.rand }
func (e *fakeEnv) Watch(id.ID)       {}
func (e *fakeEnv) Unwatch(id.ID)     {}
func (e *fakeEnv) Probe(id.ID) error { return nil }

func (e *fakeEnv) Send(dst id.ID, m msg.Message) error {
	if e.down[dst] {
		return fmt.Errorf("send: %w", peer.ErrPeerDown)
	}
	e.sent = append(e.sent, sentMsg{to: dst, m: m})
	return nil
}

// fireDue advances env's clock by d ticks and delivers the timers due to n.
func fireDue(env *fakeEnv, n *Node, d uint64) {
	for _, tm := range env.Advance(d) {
		n.Deliver(env.self, &tm)
	}
}

// flushDelay is how long after its first entry n's lazy queue flushes.
func flushDelay(n *Node) uint64 { return max(n.Config().TimerDelay/4, 1) }

// sentOfType filters recorded sends by message type.
func (e *fakeEnv) sentOfType(t msg.Type) []sentMsg {
	var out []sentMsg
	for _, s := range e.sent {
		if s.m.Type == t {
			out = append(out, s)
		}
	}
	return out
}

func TestBroadcastStartsEagerToAllNeighbors(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2, 3, 4}}
	var delivered []uint64
	n := New(env, mem, Config{}, func(r uint64, _ uint32, _ []byte, hops int) {
		if hops != 0 {
			t.Errorf("local delivery hops = %d, want 0", hops)
		}
		delivered = append(delivered, r)
	})
	n.Broadcast(7, []byte("x"))
	gossips := env.sentOfType(msg.PlumtreeGossip)
	if len(gossips) != 3 {
		t.Fatalf("eager pushes = %d, want 3 (all neighbors start eager)", len(gossips))
	}
	for _, s := range gossips {
		if s.m.Round != 7 || s.m.Hops != 0 || string(s.m.Payload) != "x" {
			t.Errorf("bad eager frame: %+v", s.m)
		}
	}
	if len(env.sentOfType(msg.PlumtreeIHave)) != 0 {
		t.Error("IHAVE sent with an empty lazy set")
	}
	if !reflect.DeepEqual(delivered, []uint64{7}) {
		t.Errorf("local delivery = %v, want [7]", delivered)
	}
	if !n.Seen(7) {
		t.Error("broadcast round not marked seen")
	}
}

func TestFirstCopyForwardedDuplicatePruned(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2, 3, 4}}
	n := New(env, mem, Config{}, nil)
	g := msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: 9, Hops: 3, Payload: []byte("p")}
	n.Deliver(2, &g)
	gossips := env.sentOfType(msg.PlumtreeGossip)
	if len(gossips) != 2 {
		t.Fatalf("forwarded to %d peers, want 2 (sender excluded)", len(gossips))
	}
	for _, s := range gossips {
		if s.to == 2 {
			t.Error("payload pushed back to the sender")
		}
		if s.m.Hops != 4 {
			t.Errorf("hops = %d, want 4", s.m.Hops)
		}
	}
	env.sent = nil

	// A second copy from another neighbor is redundant: that link leaves the
	// tree (PRUNE) and is demoted to lazy.
	n.Deliver(3, &g)
	prunes := env.sentOfType(msg.PlumtreePrune)
	if len(prunes) != 1 || prunes[0].to != 3 {
		t.Fatalf("prunes = %v, want one to n3", prunes)
	}
	if !reflect.DeepEqual(n.LazyPeers(), []id.ID{3}) {
		t.Errorf("lazy = %v, want [n3]", n.LazyPeers())
	}
	if !reflect.DeepEqual(n.EagerPeers(), []id.ID{2, 4}) {
		t.Errorf("eager = %v, want [n2 n4]", n.EagerPeers())
	}
	d, dup, fwd, _ := n.Counters()
	if d != 1 || dup != 1 || fwd != 2 {
		t.Errorf("counters = %d %d %d, want 1 1 2", d, dup, fwd)
	}
}

func TestLazyPeersGetIHaveNotPayload(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{}, nil)
	n.Deliver(3, &msg.Message{Type: msg.PlumtreePrune, Sender: 3})
	env.sent = nil

	n.Broadcast(5, []byte("y"))
	fireDue(env, n, flushDelay(n)) // the lazy queue holds the IHAVE until its flush tick
	gossips := env.sentOfType(msg.PlumtreeGossip)
	ihaves := env.sentOfType(msg.PlumtreeIHave)
	if len(gossips) != 1 || gossips[0].to != 2 {
		t.Errorf("eager pushes = %v, want only to n2", gossips)
	}
	if len(ihaves) != 1 || ihaves[0].to != 3 {
		t.Fatalf("ihaves = %v, want only to n3", ihaves)
	}
	if ihaves[0].m.Round != 5 || ihaves[0].m.Payload != nil {
		t.Errorf("IHAVE carries wrong content: %+v", ihaves[0].m)
	}
}

func TestPruneReceptionDemotesLink(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{}, nil)
	n.Deliver(2, &msg.Message{Type: msg.PlumtreePrune, Sender: 2})
	if !reflect.DeepEqual(n.LazyPeers(), []id.ID{2}) {
		t.Errorf("lazy = %v, want [n2]", n.LazyPeers())
	}
}

func TestIHaveForUnseenStartsTimerThenGrafts(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{TimerDelay: 5}, nil)

	n.Deliver(2, &msg.Message{Type: msg.PlumtreeIHave, Sender: 2, Round: 4, Hops: 1})
	if env.Pending() != 1 {
		t.Fatalf("scheduled timers = %d, want one missing-message timer", env.Pending())
	}
	if len(env.sentOfType(msg.PlumtreeIHave)) != 0 {
		t.Error("arming the timer sent wire traffic")
	}

	// The scheduler fires the timer at the deadline: the node grafts the
	// announcer, requesting a retransmission.
	timers := env.Advance(5)
	if len(timers) != 1 || timers[0].Type != msg.PlumtreeIHave || timers[0].Round != 4 {
		t.Fatalf("fired = %v, want one self-addressed IHAVE for round 4", timers)
	}
	env.sent = nil
	n.Deliver(1, &timers[0])
	grafts := env.sentOfType(msg.PlumtreeGraft)
	if len(grafts) != 1 || grafts[0].to != 2 || grafts[0].m.Round != 4 || !grafts[0].m.Accept {
		t.Fatalf("grafts = %v, want retransmission request to n2 for round 4", grafts)
	}
	if !reflect.DeepEqual(n.EagerPeers(), []id.ID{2, 3}) {
		t.Errorf("eager = %v, want announcer promoted", n.EagerPeers())
	}
}

func TestTimerCancelledByDelivery(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{TimerDelay: 5}, nil)
	n.Deliver(2, &msg.Message{Type: msg.PlumtreeIHave, Sender: 2, Round: 4, Hops: 1})

	// The eager copy arrives before the timer fires.
	n.Deliver(3, &msg.Message{Type: msg.PlumtreeGossip, Sender: 3, Round: 4})
	env.sent = nil
	for _, tm := range env.Advance(5) {
		n.Deliver(1, &tm)
	}
	if len(env.sent) != 0 {
		t.Errorf("expired timer for a delivered round acted: %v", env.sent)
	}
}

func TestGraftTriggersRetransmission(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{}, nil)
	n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: 6, Hops: 1, Payload: []byte("z")})
	n.Deliver(3, &msg.Message{Type: msg.PlumtreePrune, Sender: 3}) // n3 now lazy
	env.sent = nil

	n.Deliver(3, &msg.Message{Type: msg.PlumtreeGraft, Sender: 3, Round: 6, Accept: true})
	gossips := env.sentOfType(msg.PlumtreeGossip)
	if len(gossips) != 1 || gossips[0].to != 3 {
		t.Fatalf("retransmissions = %v, want one to n3", gossips)
	}
	if string(gossips[0].m.Payload) != "z" || gossips[0].m.Hops != 2 {
		t.Errorf("retransmitted frame = %+v, want cached payload at hops 2", gossips[0].m)
	}
	if !reflect.DeepEqual(n.EagerPeers(), []id.ID{2, 3}) {
		t.Errorf("eager = %v, want grafted link restored", n.EagerPeers())
	}
}

func TestGraftWithoutRetransmissionRequest(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2}}
	n := New(env, mem, Config{}, nil)
	n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: 6})
	n.Deliver(2, &msg.Message{Type: msg.PlumtreePrune, Sender: 2})
	env.sent = nil

	// Accept=false is the optimization graft: re-eager the link, no payload.
	n.Deliver(2, &msg.Message{Type: msg.PlumtreeGraft, Sender: 2, Round: 6, Accept: false})
	if len(env.sentOfType(msg.PlumtreeGossip)) != 0 {
		t.Error("optimization graft triggered a retransmission")
	}
	if !reflect.DeepEqual(n.EagerPeers(), []id.ID{2}) {
		t.Errorf("eager = %v, want [n2]", n.EagerPeers())
	}
}

func TestOptimizationSwapsEagerAndLazy(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{OptimizeThreshold: 2}, nil)
	// Deliver rounds 8-10 through n2 at hop count 9.
	for r := uint64(8); r <= 10; r++ {
		n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: r, Hops: 8})
	}
	n.Deliver(3, &msg.Message{Type: msg.PlumtreePrune, Sender: 3}) // n3 lazy
	env.sent = nil

	// n3 announces the same rounds at hop 2: the path via n3 (3 hops) beats
	// ours (9) by more than the threshold. Two such announcements are not
	// yet a streak; the third swaps the links.
	for r := uint64(8); r <= 10; r++ {
		if r == 10 && len(env.sent) != 0 {
			t.Fatalf("swapped before the third qualifying announcement: %v", env.sent)
		}
		n.Deliver(3, &msg.Message{Type: msg.PlumtreeIHave, Sender: 3, Round: r, Hops: 2})
	}
	grafts := env.sentOfType(msg.PlumtreeGraft)
	if len(grafts) != 1 || grafts[0].to != 3 || grafts[0].m.Accept {
		t.Fatalf("grafts = %v, want optimization graft to n3", grafts)
	}
	prunes := env.sentOfType(msg.PlumtreePrune)
	if len(prunes) != 1 || prunes[0].to != 2 {
		t.Fatalf("prunes = %v, want parent n2 pruned", prunes)
	}
	if !reflect.DeepEqual(n.EagerPeers(), []id.ID{3}) || !reflect.DeepEqual(n.LazyPeers(), []id.ID{2}) {
		t.Errorf("eager = %v lazy = %v after swap", n.EagerPeers(), n.LazyPeers())
	}
	if n.Control().Optimizes != 1 {
		t.Errorf("optimizes = %d, want 1", n.Control().Optimizes)
	}
}

func TestOptimizationRespectsThreshold(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{OptimizeThreshold: 4}, nil)
	n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: 8, Hops: 4}) // delivered at 5
	n.Deliver(3, &msg.Message{Type: msg.PlumtreePrune, Sender: 3})
	env.sent = nil

	// Announced path delivers at 3: an improvement of 2 < threshold 4.
	n.Deliver(3, &msg.Message{Type: msg.PlumtreeIHave, Sender: 3, Round: 8, Hops: 2})
	if len(env.sent) != 0 {
		t.Errorf("sub-threshold improvement acted: %v", env.sent)
	}
}

func TestSendFailureRemovesPeerAndReports(t *testing.T) {
	env := newFakeEnv(1)
	env.down[3] = true
	mem := &fakeMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{ReportPeerDown: true}, nil)
	n.Broadcast(1, nil)
	if len(mem.downs) != 1 || mem.downs[0] != 3 {
		t.Errorf("downs = %v, want [n3]", mem.downs)
	}
	_, _, _, fails := n.Counters()
	if fails != 1 {
		t.Errorf("sendFails = %d, want 1", fails)
	}
	if !reflect.DeepEqual(n.EagerPeers(), []id.ID{2}) {
		t.Errorf("eager = %v, dead peer not removed", n.EagerPeers())
	}
}

func TestSendFailureNotReportedWhenDisabled(t *testing.T) {
	env := newFakeEnv(1)
	env.down[3] = true
	mem := &fakeMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{ReportPeerDown: false}, nil)
	n.Broadcast(1, nil)
	if len(mem.downs) != 0 {
		t.Errorf("downs = %v, want none (fire-and-forget)", mem.downs)
	}
}

func TestReconcileTracksMembershipChanges(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{}, nil)
	n.Broadcast(1, nil)
	n.Deliver(3, &msg.Message{Type: msg.PlumtreePrune, Sender: 3})

	// n3 leaves the overlay, n4 joins.
	mem.neighbors = []id.ID{2, 4}
	n.OnCycle()
	if !reflect.DeepEqual(n.EagerPeers(), []id.ID{2, 4}) {
		t.Errorf("eager = %v, want [n2 n4] (newcomer eager, leaver dropped)", n.EagerPeers())
	}
	if len(n.LazyPeers()) != 0 {
		t.Errorf("lazy = %v, want empty", n.LazyPeers())
	}
	if mem.cycles != 1 {
		t.Error("membership OnCycle not delegated")
	}
}

func TestOnPeerDownRemovesFromSetsAndForwards(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{}, nil)
	n.Broadcast(1, nil)
	n.OnPeerDown(2)
	if len(mem.downs) != 1 || mem.downs[0] != 2 {
		t.Errorf("downs = %v, want [n2]", mem.downs)
	}
	if !reflect.DeepEqual(n.EagerPeers(), []id.ID{3}) {
		t.Errorf("eager = %v, want [n3]", n.EagerPeers())
	}
}

func TestMembershipMessagesDelegated(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{}
	n := New(env, mem, Config{}, nil)
	n.Deliver(2, &msg.Message{Type: msg.Shuffle, Sender: 2})
	if len(mem.delivered) != 1 || mem.delivered[0].Type != msg.Shuffle {
		t.Error("membership message not delegated")
	}
	if n.Membership() != peer.Membership(mem) {
		t.Error("Membership() does not return the wrapped protocol")
	}
}

func TestBroadcastDuplicateRoundIgnored(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2}}
	n := New(env, mem, Config{}, nil)
	n.Broadcast(5, nil)
	env.sent = nil
	n.Broadcast(5, nil)
	if len(env.sent) != 0 {
		t.Error("re-broadcast of a seen round pushed again")
	}
}

func TestResetSeenClearsDeliveryAndMissingState(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{TimerDelay: 5}, nil)
	n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: 3})
	n.Deliver(3, &msg.Message{Type: msg.PlumtreeIHave, Sender: 3, Round: 99})
	if !n.Seen(3) {
		t.Fatal("round not marked seen")
	}
	n.ResetSeen()
	if n.Seen(3) {
		t.Error("ResetSeen did not clear the cache")
	}
	env.sent = nil
	for _, tm := range env.Advance(5) {
		n.Deliver(1, &tm) // stale timer for a forgotten round
	}
	if len(env.sent) != 0 {
		t.Errorf("stale timer acted after ResetSeen: %v", env.sent)
	}
}

func TestOnCycleRearmsStalledRepair(t *testing.T) {
	env := newFakeEnv(1)
	env.down[2] = true
	mem := &fakeMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{}, nil)

	// Two announcers; the first graft target is dead, so the expiry falls
	// through to the second announcer immediately.
	n.Deliver(2, &msg.Message{Type: msg.PlumtreeIHave, Sender: 2, Round: 4, Hops: 1})
	n.Deliver(3, &msg.Message{Type: msg.PlumtreeIHave, Sender: 3, Round: 4, Hops: 1})
	env.sent = nil
	// Fire the missing-message timer by hand.
	n.Deliver(1, &msg.Message{Type: msg.PlumtreeIHave, Sender: 1, Round: 4})
	grafts := env.sentOfType(msg.PlumtreeGraft)
	if len(grafts) != 1 || grafts[0].to != 3 {
		t.Fatalf("grafts = %v, want fall-through to n3", grafts)
	}

	// The graft was consumed without a delivery; the next cycle garbage
	// collects the exhausted entry rather than leaking it.
	env.sent = nil
	n.OnCycle()
	n.OnCycle()
	if n.miss.Len() != 0 {
		t.Errorf("missing entries leaked: %d", n.miss.Len())
	}
}

func TestWithDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.TimerDelay != 1000 || cfg.OptimizeThreshold != 3 {
		t.Errorf("defaults = %+v", cfg)
	}
	custom := Config{TimerDelay: 3, OptimizeThreshold: 1}.WithDefaults()
	if custom.TimerDelay != 3 || custom.OptimizeThreshold != 1 {
		t.Errorf("custom overridden: %+v", custom)
	}
}
