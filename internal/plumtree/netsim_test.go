package plumtree

import (
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/netsim"
	"hyparview/internal/peer"
)

// staticMember is a fixed-topology membership protocol: the neighbor list
// only changes when OnPeerDown removes a failed peer, mimicking HyParView's
// reactive failure detection without its repair dynamics. It lets the
// integration tests isolate Plumtree's tree construction from membership
// churn.
type staticMember struct {
	neighbors []id.ID
}

var _ peer.Membership = (*staticMember)(nil)

func (s *staticMember) Deliver(id.ID, *msg.Message) {}
func (s *staticMember) OnCycle()                    {}
func (s *staticMember) Neighbors() []id.ID          { return append([]id.ID(nil), s.neighbors...) }

func (s *staticMember) GossipTargets(fanout int, exclude id.ID) []id.ID {
	var out []id.ID
	for _, n := range s.neighbors {
		if n != exclude {
			out = append(out, n)
		}
	}
	if fanout > 0 && len(out) > fanout {
		out = out[:fanout]
	}
	return out
}

func (s *staticMember) OnPeerDown(p id.ID) {
	for i, n := range s.neighbors {
		if n == p {
			s.neighbors = append(s.neighbors[:i], s.neighbors[i+1:]...)
			return
		}
	}
}

// staticCluster is N Plumtree nodes over a symmetric chordal ring: node i is
// connected to i±1 and i±chord (mod N), a connected degree-4 overlay.
type staticCluster struct {
	sim   *netsim.Sim
	nodes map[id.ID]*Node
	ids   []id.ID

	// onDeliver, when set, observes every delivery at every node.
	onDeliver func(node id.ID, round uint64, payload []byte)
}

func newStaticCluster(t *testing.T, n, chord int, cfg Config) *staticCluster {
	t.Helper()
	c := &staticCluster{sim: netsim.New(1), nodes: make(map[id.ID]*Node)}
	for i := 0; i < n; i++ {
		nodeID := id.ID(i + 1)
		c.ids = append(c.ids, nodeID)
		ring := func(d int) id.ID { return id.ID((i+d+2*n)%n + 1) }
		mem := &staticMember{neighbors: []id.ID{ring(-1), ring(1), ring(-chord), ring(chord)}}
		c.sim.Add(nodeID, func(env peer.Env) peer.Process {
			pn := New(env, mem, cfg, func(round uint64, _ uint32, payload []byte, _ int) {
				if c.onDeliver != nil {
					c.onDeliver(nodeID, round, payload)
				}
			})
			c.nodes[nodeID] = pn
			return pn
		})
	}
	return c
}

// broadcast sends round from src and fully processes the traffic.
func (c *staticCluster) broadcast(src id.ID, round uint64) {
	c.nodes[src].Broadcast(round, nil)
	c.sim.Drain()
}

// deliveredBy counts live nodes that have seen round.
func (c *staticCluster) deliveredBy(round uint64) int {
	count := 0
	for _, nodeID := range c.sim.AliveIDs() {
		if c.nodes[nodeID].Seen(round) {
			count++
		}
	}
	return count
}

// totalDuplicates sums redundant payload receptions over all nodes.
func (c *staticCluster) totalDuplicates() uint64 {
	var total uint64
	for _, pn := range c.nodes {
		_, dup, _, _ := pn.Counters()
		total += dup
	}
	return total
}

// eagerIsSpanningTree verifies the single-tree stabilization property: the
// union of live nodes' eager links must be symmetric, acyclic and connected —
// exactly n-1 undirected edges reaching every live node.
func eagerIsSpanningTree(t *testing.T, c *staticCluster) {
	t.Helper()
	alive := c.sim.AliveIDs()
	edges := make(map[[2]id.ID]bool)
	for _, nodeID := range alive {
		for _, p := range c.nodes[nodeID].EagerPeers() {
			if !c.sim.Alive(p) {
				t.Errorf("node %v keeps dead eager peer %v", nodeID, p)
			}
			edges[[2]id.ID{nodeID, p}] = true
		}
	}
	undirected := make(map[[2]id.ID]bool)
	for e := range edges {
		if !edges[[2]id.ID{e[1], e[0]}] {
			t.Errorf("asymmetric eager link %v->%v", e[0], e[1])
		}
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		undirected[[2]id.ID{a, b}] = true
	}
	if len(undirected) != len(alive)-1 {
		t.Fatalf("eager graph has %d undirected edges, want %d (a spanning tree)",
			len(undirected), len(alive)-1)
	}
	// n-1 symmetric edges + connectivity == spanning tree.
	adj := make(map[id.ID][]id.ID)
	for e := range undirected {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	seen := map[id.ID]bool{alive[0]: true}
	queue := []id.ID{alive[0]}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur] {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	if len(seen) != len(alive) {
		t.Fatalf("eager graph connects %d of %d live nodes", len(seen), len(alive))
	}
}

func TestStabilizesToSingleSpanningTree(t *testing.T) {
	const n = 60
	c := newStaticCluster(t, n, 7, Config{})
	src := id.ID(1)
	var round uint64
	for i := 0; i < 12; i++ {
		round++
		c.broadcast(src, round)
		if got := c.deliveredBy(round); got != n {
			t.Fatalf("round %d delivered by %d/%d nodes", round, got, n)
		}
	}
	// Once pruning has carved the tree, a broadcast must cost exactly n-1
	// payload messages: no duplicates and RMR 0. Count payloads with the
	// simulator's message tap.
	payloads := 0
	c.sim.Tap = func(_, _ id.ID, m msg.Message) {
		if m.Type == msg.PlumtreeGossip {
			payloads++
		}
	}
	dupsBefore := c.totalDuplicates()
	round++
	c.broadcast(src, round)
	if got := c.deliveredBy(round); got != n {
		t.Fatalf("stabilized round delivered by %d/%d nodes", got, n)
	}
	if d := c.totalDuplicates() - dupsBefore; d != 0 {
		t.Errorf("stabilized broadcast produced %d duplicates, want 0", d)
	}
	if payloads != n-1 {
		t.Errorf("stabilized broadcast moved %d payload messages, want %d", payloads, n-1)
	}
	eagerIsSpanningTree(t, c)
}

func TestTreeSharedAcrossSources(t *testing.T) {
	const n = 40
	c := newStaticCluster(t, n, 5, Config{})
	var round uint64
	// The eager/lazy partition is source-agnostic: after stabilizing from
	// one source, broadcasts from any other node reuse the same tree at
	// full reliability.
	for i := 0; i < 10; i++ {
		round++
		c.broadcast(1, round)
	}
	for _, src := range []id.ID{7, 23, 40} {
		round++
		c.broadcast(src, round)
		if got := c.deliveredBy(round); got != n {
			t.Errorf("source %v: delivered by %d/%d nodes", src, got, n)
		}
	}
}

func TestTreeRepairAfterFailure(t *testing.T) {
	const n = 60
	// ReportPeerDown wires the failure-detection loop the protocol runs
	// with over HyParView: a failed eager push purges the peer from the
	// membership view, so reconcile stops re-adding it.
	c := newStaticCluster(t, n, 7, Config{ReportPeerDown: true})
	src := id.ID(1)
	var round uint64
	for i := 0; i < 12; i++ {
		round++
		c.broadcast(src, round)
	}
	// Kill an interior tree node: one with at least two eager links, so its
	// children genuinely lose their payload path.
	var victim id.ID
	for _, nodeID := range c.ids {
		if nodeID != src && len(c.nodes[nodeID].EagerPeers()) >= 2 {
			victim = nodeID
			break
		}
	}
	if victim.IsNil() {
		t.Fatal("no interior tree node found")
	}
	c.sim.Fail(victim)

	// The very next broadcast must reach every survivor: eager pushes to the
	// dead node fail (reactive detection), the orphaned subtree hears IHAVE
	// announcements on lazy links, times out, and GRAFTs a new parent — all
	// within one drain.
	round++
	c.broadcast(src, round)
	if got := c.deliveredBy(round); got != n-1 {
		t.Fatalf("post-failure round delivered by %d/%d live nodes", got, n-1)
	}

	// A few rounds later the tree must have re-stabilized: spanning again,
	// without the victim, and duplicate-free.
	for i := 0; i < 8; i++ {
		round++
		c.broadcast(src, round)
	}
	dupsBefore := c.totalDuplicates()
	round++
	c.broadcast(src, round)
	if got := c.deliveredBy(round); got != n-1 {
		t.Fatalf("re-stabilized round delivered by %d/%d live nodes", got, n-1)
	}
	if d := c.totalDuplicates() - dupsBefore; d != 0 {
		t.Errorf("re-stabilized broadcast produced %d duplicates, want 0", d)
	}
	eagerIsSpanningTree(t, c)
}

func TestMassFailureStaysReliable(t *testing.T) {
	const n, chord = 80, 9
	c := newStaticCluster(t, n, chord, Config{ReportPeerDown: true})
	var round uint64
	for i := 0; i < 10; i++ {
		round++
		c.broadcast(1, round)
	}
	// Fail 25% of the static overlay (every 4th node, sparing the source).
	for i := 3; i < n; i += 4 {
		c.sim.Fail(id.ID(i + 1))
	}
	// Plumtree must match flood's guarantee: every survivor the residual
	// overlay can still reach from the source delivers. Compute the
	// reachable set over the chordal-ring topology restricted to live nodes.
	reachable := map[id.ID]bool{1: true}
	queue := []id.ID{1}
	for len(queue) > 0 {
		cur := int(queue[0]) - 1
		queue = queue[1:]
		for _, d := range []int{-1, 1, -chord, chord} {
			next := id.ID((cur+d+2*n)%n + 1)
			if c.sim.Alive(next) && !reachable[next] {
				reachable[next] = true
				queue = append(queue, next)
			}
		}
	}
	for i := 0; i < 3; i++ {
		round++
		c.broadcast(1, round)
		if got := c.deliveredBy(round); got != len(reachable) {
			t.Errorf("round %d after mass failure delivered by %d nodes, want the %d reachable",
				round, got, len(reachable))
		}
	}
}

func TestDeterministicTraces(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		c := newStaticCluster(t, 40, 5, Config{})
		var round uint64
		for i := 0; i < 8; i++ {
			round++
			c.broadcast(id.ID(i%5+1), round)
		}
		var del, dup, fwd uint64
		for _, pn := range c.nodes {
			d, du, f, _ := pn.Counters()
			del += d
			dup += du
			fwd += f
		}
		return del, dup, fwd
	}
	d1, du1, f1 := run()
	d2, du2, f2 := run()
	if d1 != d2 || du1 != du2 || f1 != f2 {
		t.Errorf("identical runs diverged: (%d %d %d) vs (%d %d %d)", d1, du1, f1, d2, du2, f2)
	}
}

// TestMissingMessageTimerFiresAtConfiguredVirtualTime pins the timer
// semantics to the virtual clock: a node that hears only an IHAVE grafts the
// announcer exactly Config.TimerDelay ticks after the announcement, with the
// simulator's clock landing on precisely that instant.
func TestMissingMessageTimerFiresAtConfiguredVirtualTime(t *testing.T) {
	const delay = 250
	sim := netsim.New(1)
	nodes := make(map[id.ID]*Node, 2)
	for _, nodeID := range []id.ID{1, 2} {
		mem := &staticMember{neighbors: []id.ID{3 - nodeID}}
		captured := nodeID
		sim.Add(nodeID, func(env peer.Env) peer.Process {
			pn := New(env, mem, Config{TimerDelay: delay}, nil)
			nodes[captured] = pn
			return pn
		})
	}
	// Node 2 hears about round 7 but never receives the payload.
	if err := sim.Inject(1, 2, msg.Message{Type: msg.PlumtreeIHave, Sender: 1, Round: 7, Hops: 1}); err != nil {
		t.Fatal(err)
	}
	start := sim.Now()
	sim.Drain()
	if got := sim.Now() - start; got != delay {
		t.Errorf("clock after timer-driven repair advanced %d ticks, want exactly %d", got, delay)
	}
	ctl := nodes[2].Control()
	if ctl.TimerFires != 1 || ctl.GraftsSent != 1 {
		t.Errorf("timer fires = %d grafts = %d, want 1 and 1", ctl.TimerFires, ctl.GraftsSent)
	}
	if got := nodes[1].Control().GraftsRecvd; got != 1 {
		t.Errorf("announcer answered %d grafts, want 1", got)
	}
}

// TestTinyTimerDelayRepairsWithinDrain: even a 1-tick timer fires behind all
// in-flight traffic, so tree repair still completes inside a single Drain —
// the property the old TTL re-queue idiom provided, now guaranteed by the
// event heap's time ordering.
func TestTinyTimerDelayRepairsWithinDrain(t *testing.T) {
	c := newStaticCluster(t, 24, 5, Config{TimerDelay: 1})
	c.broadcast(1, 1)
	c.sim.Fail(2)
	c.sim.Drain()
	c.broadcast(5, 2)
	if got, want := c.deliveredBy(2), c.sim.AliveCount(); got != want {
		t.Errorf("delivered to %d of %d live nodes after failure with 1-tick timer", got, want)
	}
}
