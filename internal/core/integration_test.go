package core_test

import (
	"testing"

	"hyparview/internal/core"
	"hyparview/internal/graph"
	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/netsim"
	"hyparview/internal/peer"
)

// buildOverlay joins n HyParView nodes one by one through node 1 and returns
// the simulator plus the node handles.
func buildOverlay(t *testing.T, n int, seed uint64, cycles int) (*netsim.Sim, map[id.ID]*core.Node) {
	t.Helper()
	s := netsim.New(seed)
	nodes := make(map[id.ID]*core.Node, n)
	for i := 1; i <= n; i++ {
		nodeID := id.ID(i)
		var nd *core.Node
		s.Add(nodeID, func(env peer.Env) peer.Process {
			nd = core.New(env, core.Config{})
			return nd
		})
		nodes[nodeID] = nd
		if i > 1 {
			if err := nd.Join(1); err != nil {
				t.Fatalf("join %v: %v", nodeID, err)
			}
			s.Drain()
		}
	}
	s.RunCycles(cycles)
	return s, nodes
}

func snapshot(s *netsim.Sim, nodes map[id.ID]*core.Node) *graph.Snapshot {
	return graph.Build(s.AliveIDs(), func(n id.ID) []id.ID { return nodes[n].Active() })
}

func TestOverlayConnectedAfterJoins(t *testing.T) {
	s, nodes := buildOverlay(t, 300, 11, 0)
	snap := snapshot(s, nodes)
	if !snap.IsConnected() {
		t.Errorf("overlay disconnected right after joins: components %v",
			snap.ConnectedComponents()[:3])
	}
}

func TestOverlaySymmetricAfterStabilization(t *testing.T) {
	s, nodes := buildOverlay(t, 300, 12, 30)
	snap := snapshot(s, nodes)
	if sym := snap.SymmetryFraction(); sym < 0.999 {
		t.Errorf("active-view symmetry = %.4f, want 1.0 (paper §4.1)", sym)
	}
	if !snap.IsConnected() {
		t.Error("overlay disconnected after stabilization")
	}
}

func TestActiveViewsFillUp(t *testing.T) {
	s, nodes := buildOverlay(t, 300, 13, 30)
	full, total := 0, 0
	for _, nodeID := range s.AliveIDs() {
		total++
		if len(nodes[nodeID].Active()) >= nodes[nodeID].Config().ActiveSize-1 {
			full++
		}
	}
	if frac := float64(full) / float64(total); frac < 0.95 {
		t.Errorf("only %.2f%% of nodes have a (nearly) full active view", frac*100)
	}
}

func TestPassiveViewsPopulated(t *testing.T) {
	s, nodes := buildOverlay(t, 300, 14, 30)
	for _, nodeID := range s.AliveIDs()[:10] {
		if got := len(nodes[nodeID].Passive()); got < 10 {
			t.Errorf("node %v passive view only %d entries after stabilization", nodeID, got)
		}
	}
}

func TestViewsDisjointClusterWide(t *testing.T) {
	s, nodes := buildOverlay(t, 200, 15, 20)
	for _, nodeID := range s.AliveIDs() {
		nd := nodes[nodeID]
		for _, a := range nd.Active() {
			if nd.PassiveContains(a) {
				t.Fatalf("node %v holds %v in both views", nodeID, a)
			}
			if a == nodeID {
				t.Fatalf("node %v holds itself in active view", nodeID)
			}
		}
	}
}

func TestRecoveryAfterMassFailure(t *testing.T) {
	s, nodes := buildOverlay(t, 400, 16, 30)
	// Kill 60% of the population.
	alive := s.AliveIDs()
	r := s.Rand()
	r.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	for _, victim := range alive[:240] {
		s.Fail(victim)
	}
	s.Drain() // deliver TCP resets, let repairs run
	// Give the reactive machinery two cycles, as the paper's Fig. 4 allows.
	s.RunCycles(2)
	snap := snapshot(s, nodes)
	if lcc := snap.LargestComponentFraction(); lcc < 0.99 {
		t.Errorf("largest component after 60%% failure + 2 cycles = %.3f, want ≥0.99", lcc)
	}
	// No live node should keep dead members in its active view.
	for _, nodeID := range s.AliveIDs() {
		for _, a := range nodes[nodeID].Active() {
			if !s.Alive(a) {
				t.Fatalf("node %v still lists dead %v in active view", nodeID, a)
			}
		}
	}
}

func TestContactNodeDeathDoesNotPartition(t *testing.T) {
	s, nodes := buildOverlay(t, 200, 17, 20)
	s.Fail(1) // the single contact everyone joined through
	s.Drain()
	s.RunCycles(1)
	snap := snapshot(s, nodes)
	if lcc := snap.LargestComponentFraction(); lcc < 0.99 {
		t.Errorf("overlay fell apart after contact death: lcc=%.3f", lcc)
	}
}

func TestInDegreeBalanced(t *testing.T) {
	s, nodes := buildOverlay(t, 500, 18, 30)
	snap := snapshot(s, nodes)
	dist := snap.InDegreeDistribution()
	// Paper Fig. 5: with symmetric views, almost all nodes have in-degree
	// equal to the active view size.
	atMax := dist[5]
	if frac := float64(atMax) / 500; frac < 0.8 {
		t.Errorf("only %.2f%% of nodes at in-degree 5; distribution %v", frac*100, dist)
	}
	for deg := range dist {
		if deg > 5 {
			t.Errorf("in-degree %d exceeds active view size", deg)
		}
	}
}

func TestDeterminismSameSeedSameOverlay(t *testing.T) {
	s1, nodes1 := buildOverlay(t, 150, 99, 10)
	s2, nodes2 := buildOverlay(t, 150, 99, 10)
	for _, nodeID := range s1.AliveIDs() {
		a1, a2 := nodes1[nodeID].Active(), nodes2[nodeID].Active()
		if len(a1) != len(a2) {
			t.Fatalf("node %v view sizes differ: %v vs %v", nodeID, a1, a2)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("node %v views diverged: %v vs %v", nodeID, a1, a2)
			}
		}
	}
	if s1.Stats() != s2.Stats() {
		t.Errorf("simulator stats diverged: %+v vs %+v", s1.Stats(), s2.Stats())
	}
	_ = nodes2
}

func TestDifferentSeedsDifferentOverlay(t *testing.T) {
	_, nodes1 := buildOverlay(t, 150, 1, 10)
	_, nodes2 := buildOverlay(t, 150, 2, 10)
	same := 0
	total := 0
	for nodeID, n1 := range nodes1 {
		a1, a2 := n1.Active(), nodes2[nodeID].Active()
		if len(a1) == len(a2) {
			eq := true
			for i := range a1 {
				if a1[i] != a2[i] {
					eq = false
					break
				}
			}
			if eq {
				same++
			}
		}
		total++
	}
	if same == total {
		t.Error("different seeds produced identical overlays")
	}
}

// TestJoinMessageFlow taps the simulator's deliveries while 12 nodes join
// through node 1 and asserts the canonical join flow of §4.2: every JOIN is
// delivered at the contact, and FORWARDJOIN walks follow the first JOIN.
func TestJoinMessageFlow(t *testing.T) {
	type delivery struct {
		to id.ID
		ty msg.Type
	}
	var log []delivery
	s := netsim.New(1)
	s.Tap = func(_, to id.ID, m msg.Message) { log = append(log, delivery{to, m.Type}) }
	for i := 1; i <= 12; i++ {
		var nd *core.Node
		s.Add(id.ID(i), func(env peer.Env) peer.Process {
			nd = core.New(env, core.Config{})
			return nd
		})
		if i > 1 {
			if err := nd.Join(1); err != nil {
				t.Fatal(err)
			}
			s.Drain()
		}
	}
	joins, firstJoin, firstFwd := 0, -1, -1
	for i, d := range log {
		switch d.ty {
		case msg.Join:
			joins++
			if firstJoin < 0 {
				firstJoin = i
			}
			if d.to != 1 {
				t.Errorf("JOIN delivered at %v, want contact n1", d.to)
			}
		case msg.ForwardJoin:
			if firstFwd < 0 {
				firstFwd = i
			}
		}
	}
	if joins != 11 {
		t.Fatalf("JOIN deliveries = %d, want 11", joins)
	}
	if firstFwd < 0 {
		t.Fatal("no FORWARDJOIN walks observed")
	}
	if firstFwd < firstJoin {
		t.Error("FORWARDJOIN observed before any JOIN")
	}
}
