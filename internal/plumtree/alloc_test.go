package plumtree

import (
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/rng"
)

// nullEnv is an environment whose hot-path operations allocate nothing, so
// AllocsPerRun isolates the Plumtree layer's own allocations. ManualScheduler
// is not embedded because its After appends to a queue; timers are a no-op
// here and the steady-state path under test arms none.
type nullEnv struct {
	self id.ID
	rand *rng.Rand
}

var _ peer.Env = (*nullEnv)(nil)

func (e *nullEnv) Self() id.ID                   { return e.self }
func (e *nullEnv) Send(id.ID, msg.Message) error { return nil }
func (e *nullEnv) Probe(id.ID) error             { return nil }
func (e *nullEnv) Rand() *rng.Rand               { return e.rand }
func (e *nullEnv) Watch(id.ID)                   {}
func (e *nullEnv) Unwatch(id.ID)                 {}
func (e *nullEnv) Now() uint64                   { return 0 }
func (e *nullEnv) After(uint64, msg.Message)     {}
func (e *nullEnv) Every(uint64, msg.Message)     {}

// versionedMembership is a fixed neighborhood exposing the change counter
// that lets reconcile collapse to an integer compare (the HyParView case).
type versionedMembership struct {
	neighbors []id.ID
	scratch   []id.ID
}

var _ peer.Membership = (*versionedMembership)(nil)
var _ peer.NeighborVersioned = (*versionedMembership)(nil)

func (f *versionedMembership) Deliver(id.ID, *msg.Message) {}
func (f *versionedMembership) OnCycle()                    {}
func (f *versionedMembership) Neighbors() []id.ID          { return append([]id.ID(nil), f.neighbors...) }
func (f *versionedMembership) OnPeerDown(id.ID)            {}
func (f *versionedMembership) NeighborVersion() uint64     { return 1 }

func (f *versionedMembership) GossipTargets(fanout int, exclude id.ID) []id.ID {
	f.scratch = f.scratch[:0]
	for _, n := range f.neighbors {
		if n != exclude {
			f.scratch = append(f.scratch, n)
		}
	}
	return f.scratch
}

// flushTick fires n's lazy-queue flush by hand (nullEnv's After drops the
// tick the node armed), staging the tick in *in as the environment would.
func flushTick(n *Node, in *msg.Message) {
	*in = msg.Message{Type: msg.Tick, Sender: n.env.Self(), Round: msg.TickPlumtreeFlush}
	n.Deliver(in.Sender, in)
}

// TestSteadyStateDeliveryZeroAlloc pins the acceptance criterion for the
// Plumtree layer: with the tree converged (stable eager/lazy partition) and
// the membership versioned, delivering an eager payload, pushing it on, an
// IHAVE announcement, a redundant eager copy, and a lazy-queue flush that
// owes each peer one announcement all allocate nothing. A flush that packs
// several announcements for a peer allocates that frame's payload, and
// nothing else.
func TestSteadyStateDeliveryZeroAlloc(t *testing.T) {
	env := &nullEnv{self: 1, rand: rng.New(1)}
	mem := &versionedMembership{neighbors: []id.ID{2, 3, 4, 5}}
	payload := make([]byte, 64)
	n := New(env, mem, Config{}, nil)

	round := uint64(0)
	// in stands for the environment's stored copy: Deliver may not keep the
	// pointer, so the copy lives outside the measured loop, as it does in the
	// simulator's arenas.
	var in msg.Message
	iteration := func() {
		round++
		// Fresh eager push from 2 (delivered, forwarded to eager peers,
		// announced to lazy peers), a redundant copy from 3 (PRUNE + demote
		// path), and a late IHAVE from 4 (already-seen optimization check).
		in = msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: round, Hops: 1, Payload: payload}
		n.Deliver(2, &in)
		in = msg.Message{Type: msg.PlumtreeGossip, Sender: 3, Round: round, Hops: 2, Payload: payload}
		n.Deliver(3, &in)
		in = msg.Message{Type: msg.PlumtreeIHave, Sender: 4, Round: round, Hops: 2}
		n.Deliver(4, &in)
		flushTick(n, &in)
	}
	// Warm until the eager/lazy partition and the seen cache reach steady
	// state, past the cache window so eviction recycling is measured too.
	for i := 0; i < DefaultCacheWindow+8; i++ {
		iteration()
	}
	if allocs := testing.AllocsPerRun(200, iteration); allocs != 0 {
		t.Fatalf("steady-state plumtree delivery allocates %.1f/op, want 0", allocs)
	}

	d, dup, _, _ := n.Counters()
	if d == 0 || dup == 0 {
		t.Fatalf("test drove no real traffic: delivered=%d dup=%d", d, dup)
	}
	if n.Control().PrunesSent == 0 {
		t.Fatal("duplicate path never pruned; steady state not exercised")
	}
	if n.Control().IHavesSent == 0 {
		t.Fatal("no announcement was flushed; the lazy queue was not exercised")
	}

	// Three lazy peers: one delivery per flush sends three plain IHAVEs,
	// five deliveries per flush send three batch IHAVEs of five entries.
	mem = &versionedMembership{neighbors: []id.ID{2, 3, 4, 5}}
	n = New(env, mem, Config{}, nil)
	for _, p := range []id.ID{3, 4, 5} {
		in = msg.Message{Type: msg.PlumtreePrune, Sender: p}
		n.Deliver(p, &in)
	}
	deliveries := 1
	flushed := func() {
		for i := 0; i < deliveries; i++ {
			round++
			in = msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: round, Hops: 1, Payload: payload}
			n.Deliver(2, &in)
		}
		flushTick(n, &in)
	}
	for i := 0; i < DefaultCacheWindow+8; i++ {
		flushed()
	}
	if allocs := testing.AllocsPerRun(200, flushed); allocs != 0 {
		t.Fatalf("a flush of one announcement per peer allocates %.1f/op, want 0", allocs)
	}
	deliveries = 5
	sent := n.Control().IHavesSent
	if allocs := testing.AllocsPerRun(200, flushed); allocs > 3 {
		t.Fatalf("a flush of three 5-entry frames allocates %.1f/op, want at most 3", allocs)
	}
	if got := n.Control().IHavesSent - sent; got != 201*15 {
		t.Fatalf("IHavesSent grew by %d over 201 flushes, want %d", got, 201*15)
	}
}

// TestVersionGateDropsStaleNonNeighbor guards the interaction between the
// NeighborVersioned reconcile gate and promote(): traffic from a peer that
// already left the neighborhood (its messages were in flight when it was
// removed) momentarily re-enters the eager set via promote, and because the
// membership version did not move, the gated reconcile would keep that
// phantom edge alive forever. promote must force a resync for such local
// insertions, so the very next delivery prunes the stale peer.
func TestVersionGateDropsStaleNonNeighbor(t *testing.T) {
	env := &nullEnv{self: 1, rand: rng.New(1)}
	mem := &versionedMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{}, nil)

	// Sync the partition against the neighborhood {2, 3}.
	n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: 1, Hops: 1})

	// Peer 9 is NOT a neighbor; its in-flight payload arrives anyway and
	// promote() pulls it into the eager set.
	n.Deliver(9, &msg.Message{Type: msg.PlumtreeGossip, Sender: 9, Round: 2, Hops: 1})

	// The next delivery runs reconcile; the forced resync must prune 9 even
	// though the membership version never moved.
	n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: 3, Hops: 1})
	for _, p := range n.EagerPeers() {
		if p == 9 {
			t.Fatal("stale non-neighbor survived in the eager set behind the version gate")
		}
	}
	for _, p := range n.LazyPeers() {
		if p == 9 {
			t.Fatal("stale non-neighbor survived in the lazy set behind the version gate")
		}
	}
}

// TestMissingRoundPathZeroAlloc pins the repair bookkeeping: IHAVE
// announcements for rounds this node never receives must recycle the
// missing-entry cache (sources slices and all) instead of allocating
// per round.
func TestMissingRoundPathZeroAlloc(t *testing.T) {
	env := &nullEnv{self: 1, rand: rng.New(1)}
	mem := &versionedMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{}, nil)

	round := uint64(0)
	var in msg.Message // the environment's stored copy, as above
	iteration := func() {
		round++
		in = msg.Message{Type: msg.PlumtreeIHave, Sender: 2, Round: round, Hops: 1}
		n.Deliver(2, &in)
		in = msg.Message{Type: msg.PlumtreeIHave, Sender: 3, Round: round, Hops: 1}
		n.Deliver(3, &in)
	}
	for i := 0; i < DefaultCacheWindow+8; i++ {
		iteration()
	}
	if allocs := testing.AllocsPerRun(200, iteration); allocs != 0 {
		t.Fatalf("missing-round bookkeeping allocates %.1f/op, want 0", allocs)
	}
}
