package gossip_test

import (
	"testing"

	"hyparview/internal/gossip"
	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/netsim"
	"hyparview/internal/peer"
)

// meshMember is a full-mesh static membership: every node neighbors every
// other, giving the broadcast layer a maximally redundant overlay so the
// counter accounting is exercised under heavy duplication.
type meshMember struct {
	self id.ID
	n    int
}

var _ peer.Membership = (*meshMember)(nil)

func (m *meshMember) Deliver(id.ID, *msg.Message) {}
func (m *meshMember) OnCycle()                    {}
func (m *meshMember) OnPeerDown(id.ID)            {}

func (m *meshMember) Neighbors() []id.ID {
	out := make([]id.ID, 0, m.n-1)
	for i := 1; i <= m.n; i++ {
		if p := id.ID(i); p != m.self {
			out = append(out, p)
		}
	}
	return out
}

func (m *meshMember) GossipTargets(fanout int, exclude id.ID) []id.ID {
	var out []id.ID
	for _, p := range m.Neighbors() {
		if p != exclude {
			out = append(out, p)
		}
	}
	if fanout > 0 && len(out) > fanout {
		out = out[:fanout]
	}
	return out
}

// buildMesh wires n flood-gossip nodes over a full mesh in one simulator.
func buildMesh(n int) (*netsim.Sim, map[id.ID]*gossip.Node) {
	sim := netsim.New(1)
	nodes := make(map[id.ID]*gossip.Node, n)
	for i := 1; i <= n; i++ {
		nodeID := id.ID(i)
		sim.Add(nodeID, func(env peer.Env) peer.Process {
			g := gossip.New(env, &meshMember{self: nodeID, n: n}, gossip.Config{Mode: gossip.Flood}, nil)
			nodes[nodeID] = g
			return g
		})
	}
	return sim, nodes
}

// TestConcurrentBroadcastAccounting drives two broadcasts of DIFFERENT
// rounds that are in flight simultaneously (both enqueued before any
// delivery) and checks the cluster-wide counter identities against the
// simulator's own statistics.
func TestConcurrentBroadcastAccounting(t *testing.T) {
	const n = 8
	sim, nodes := buildMesh(n)
	before := sim.Stats()
	nodes[1].Broadcast(10, nil)
	nodes[5].Broadcast(11, nil)
	sim.Drain()
	after := sim.Stats()

	var del, dup, fwd, fails uint64
	for _, g := range nodes {
		d, du, f, sf := g.Counters()
		del += d
		dup += du
		fwd += f
		fails += sf
	}
	// Every node delivers both rounds exactly once.
	if del != 2*n {
		t.Errorf("total delivered = %d, want %d", del, 2*n)
	}
	for _, g := range nodes {
		if !g.Seen(10) || !g.Seen(11) {
			t.Error("a node missed one of the concurrent rounds")
		}
	}
	// Identity 1: every network reception is a first copy or a duplicate
	// (the two source-local deliveries never crossed the network).
	if got, want := (del-2)+dup, after.Delivered-before.Delivered; got != want {
		t.Errorf("receptions by counters = %d, by simulator = %d", got, want)
	}
	// Identity 2: with no failures, everything forwarded was sent.
	if got, want := fwd, after.Sent-before.Sent; got != want {
		t.Errorf("forwards by counters = %d, sends by simulator = %d", got, want)
	}
	if fails != 0 {
		t.Errorf("sendFails = %d on a healthy mesh", fails)
	}
}

// TestConcurrentSameRoundBroadcast has two nodes originate the SAME round
// concurrently — an application-level round collision. Each node must
// deliver exactly once, with the excess accounted as duplicates.
func TestConcurrentSameRoundBroadcast(t *testing.T) {
	const n = 6
	sim, nodes := buildMesh(n)
	nodes[1].Broadcast(7, nil)
	nodes[2].Broadcast(7, nil)
	sim.Drain()

	var del uint64
	for _, g := range nodes {
		d, _, _, _ := g.Counters()
		del += d
	}
	if del != n {
		t.Errorf("total delivered = %d, want %d (exactly once per node)", del, n)
	}
	for nodeID, g := range nodes {
		d, _, _, _ := g.Counters()
		if d != 1 {
			t.Errorf("node %v delivered %d times", nodeID, d)
		}
	}
}

// TestBroadcastToFailedPeersAccountsSendFails floods a mesh where some
// destinations are already dead: the failures surface in sendFails, and
// reliability over the survivors stays atomic.
func TestBroadcastToFailedPeersAccountsSendFails(t *testing.T) {
	const n = 6
	sim, nodes := buildMesh(n)
	sim.Fail(3)
	sim.Fail(4)
	nodes[1].Broadcast(1, nil)
	sim.Drain()

	var del, fails uint64
	for _, nodeID := range sim.AliveIDs() {
		d, _, _, sf := nodes[nodeID].Counters()
		del += d
		fails += sf
	}
	if del != 4 {
		t.Errorf("live deliveries = %d, want 4", del)
	}
	if fails == 0 {
		t.Error("no sendFails recorded despite two dead destinations")
	}
}
