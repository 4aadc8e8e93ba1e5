package gossip

import (
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/peer/peertest"
	"hyparview/internal/rng"
)

// nullEnv is an environment whose hot-path operations allocate nothing, so
// AllocsPerRun isolates the gossip layer's own allocations.
type nullEnv struct {
	peertest.ManualScheduler
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

// flatMembership serves a fixed neighbor list through a reused scratch
// buffer, like the real memberships do per the GossipTargets contract.
type flatMembership struct {
	neighbors []id.ID
	scratch   []id.ID
}

var _ peer.Membership = (*flatMembership)(nil)

func (f *flatMembership) Deliver(id.ID, *msg.Message) {}
func (f *flatMembership) OnCycle()                    {}
func (f *flatMembership) Neighbors() []id.ID          { return append([]id.ID(nil), f.neighbors...) }
func (f *flatMembership) OnPeerDown(id.ID)            {}
func (f *flatMembership) NeighborVersion() uint64     { return 1 }

func (f *flatMembership) GossipTargets(fanout int, exclude id.ID) []id.ID {
	f.scratch = f.scratch[:0]
	for _, n := range f.neighbors {
		if n != exclude {
			f.scratch = append(f.scratch, n)
		}
	}
	if fanout > 0 && len(f.scratch) > fanout {
		f.scratch = f.scratch[:fanout]
	}
	return f.scratch
}

// TestSteadyStateDeliveryZeroAlloc pins the acceptance criterion for the
// gossip layer: once warmed, delivering a fresh broadcast copy, forwarding
// it, and absorbing duplicate copies allocates nothing. Any regression —
// a map sneaking back into the seen path, a fresh slice per fan-out — fails
// this test before it shows up in BENCH_sim.json.
func TestSteadyStateDeliveryZeroAlloc(t *testing.T) {
	env := &nullEnv{self: 1, rand: rng.New(1)}
	mem := &flatMembership{neighbors: []id.ID{2, 3, 4, 5}}
	payload := make([]byte, 64)
	n := New(env, mem, Config{Mode: Flood}, nil)

	round := uint64(0)
	// in stands for the environment's stored copy: Deliver may not keep the
	// pointer, so the copy lives outside the measured loop, as it does in the
	// simulator's arenas.
	var in msg.Message
	iteration := func() {
		round++
		// One fresh copy (delivered + forwarded) and two duplicates — the
		// flood steady state, including dedup-window evictions once round
		// exceeds the seen capacity.
		in = msg.Message{Type: msg.Gossip, Sender: 2, Round: round, Hops: 1, Payload: payload}
		n.Deliver(2, &in)
		in = msg.Message{Type: msg.Gossip, Sender: 3, Round: round, Hops: 2, Payload: payload}
		n.Deliver(3, &in)
		in = msg.Message{Type: msg.Gossip, Sender: 4, Round: round, Hops: 2, Payload: payload}
		n.Deliver(4, &in)
	}
	// Warm past the seen window so the eviction path is exercised inside
	// the measured runs too.
	for i := 0; i < DefaultSeenWindow+8; i++ {
		iteration()
	}
	if allocs := testing.AllocsPerRun(200, iteration); allocs != 0 {
		t.Fatalf("steady-state gossip delivery allocates %.1f/op, want 0", allocs)
	}

	d, dup, fwd, _ := n.Counters()
	if d == 0 || dup == 0 || fwd == 0 {
		t.Fatalf("test drove no real traffic: delivered=%d dup=%d fwd=%d", d, dup, fwd)
	}
}

// TestTrackerDeliverZeroAlloc pins the harness-side per-delivery path.
func TestTrackerDeliverZeroAlloc(t *testing.T) {
	tr := NewTracker()
	round := tr.NextRound()
	tr.Deliver(round, 0, nil, 0)
	if allocs := testing.AllocsPerRun(200, func() {
		tr.Deliver(round, 0, nil, 3)
	}); allocs != 0 {
		t.Fatalf("Tracker.Deliver allocates %.1f/op, want 0", allocs)
	}
	// Fresh rounds with Forget (the MeasureBurst pattern) stay flat too.
	if allocs := testing.AllocsPerRun(200, func() {
		r := tr.NextRound()
		tr.Deliver(r, 0, nil, 1)
		tr.Forget(r)
	}); allocs != 0 {
		t.Fatalf("Tracker round lifecycle allocates %.1f/op, want 0", allocs)
	}
}
