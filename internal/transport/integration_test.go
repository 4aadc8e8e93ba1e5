package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyparview/internal/core"
	"hyparview/internal/id"
	"hyparview/internal/msg"
)

// loopbackCluster is a set of TCP agents on loopback sharing a delivery
// counter, for end-to-end stack tests.
type loopbackCluster struct {
	agents    []*Agent
	delivered atomic.Int64
}

// newLoopbackCluster starts n agents with the given stack configuration and
// joins all of them through agent 0.
func newLoopbackCluster(t testing.TB, n int, mode BroadcastMode, optimize bool) *loopbackCluster {
	t.Helper()
	c := &loopbackCluster{}
	t.Cleanup(c.close)
	for i := 0; i < n; i++ {
		a, err := NewAgent("127.0.0.1:0", AgentConfig{
			CyclePeriod:   100 * time.Millisecond,
			Broadcast:     mode,
			PlumtreeTimer: 50 * time.Millisecond,
			Optimize:      optimize,
			Seed:          uint64(i + 1),
			OnDeliver:     func([]byte) { c.delivered.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		c.agents = append(c.agents, a)
	}
	for _, a := range c.agents[1:] {
		if err := a.Join(c.agents[0].Addr()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(400 * time.Millisecond) // let shuffles symmetrize the overlay
	return c
}

func (c *loopbackCluster) close() {
	for _, a := range c.agents {
		_ = a.Close()
	}
}

// burst broadcasts msgs payloads round-robin across the agents and waits
// until every agent delivered every message (or deadline). It returns the
// number of deliveries observed for the burst.
func (c *loopbackCluster) burst(t testing.TB, msgs int, timeout time.Duration) int64 {
	t.Helper()
	start := c.delivered.Load()
	for i := 0; i < msgs; i++ {
		if err := c.agents[i%len(c.agents)].Broadcast([]byte{byte(i)}); err != nil {
			t.Fatalf("broadcast %d: %v", i, err)
		}
	}
	want := int64(msgs * len(c.agents))
	deadline := time.Now().Add(timeout)
	for c.delivered.Load()-start < want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return c.delivered.Load() - start
}

// dupTotal sums the duplicate payload receptions across the cluster.
func (c *loopbackCluster) dupTotal() uint64 {
	var total uint64
	for _, a := range c.agents {
		total += a.BroadcastStats().Duplicates
	}
	return total
}

// burstRMR measures a burst's relative message redundancy: duplicate payload
// receptions per required payload delivery. A perfect spanning tree scores 0;
// flooding a symmetric overlay of mean degree d scores about d-1.
func (c *loopbackCluster) burstRMR(t testing.TB, msgs int, timeout time.Duration) float64 {
	t.Helper()
	n := len(c.agents)
	dupBefore := c.dupTotal()
	got := c.burst(t, msgs, timeout)
	if want := int64(msgs * n); got != want {
		t.Fatalf("burst reliability < 1.0: delivered %d of %d", got, want)
	}
	dup := c.dupTotal() - dupBefore
	return float64(dup) / float64(msgs*(n-1))
}

// TestAgentFullStackSoak is the deployment the paper deferred to future work
// (§6), in miniature: 12 real TCP agents running the complete protocol stack
// — HyParView membership, X-BOT RTT-driven overlay optimization, Plumtree
// broadcast trees with real-clock repair timers — must deliver a burst at
// reliability 1.0 while beating flooding's redundancy on an equivalent
// overlay.
func TestAgentFullStackSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-agent loopback soak")
	}
	const n, msgs = 12, 20

	tree := newLoopbackCluster(t, n, BroadcastPlumtree, true)
	// Warm-up: redundant pushes earn PRUNEs and the eager links converge to
	// a spanning tree. One fully-delivered broadcast at a time, like the
	// simulator's drained rounds — concurrent rounds on a still-redundant
	// topology thrash each other's prune decisions and delay convergence.
	for i := 0; i < 15; i++ {
		tree.burst(t, 1, 10*time.Second)
	}
	treeRMR := tree.burstRMR(t, msgs, 30*time.Second)

	flood := newLoopbackCluster(t, n, BroadcastFlood, false)
	floodRMR := flood.burstRMR(t, msgs, 30*time.Second)

	t.Logf("RMR over %d msgs: plumtree=%.3f flood=%.3f", msgs, treeRMR, floodRMR)
	if treeRMR >= floodRMR {
		t.Errorf("plumtree RMR %.3f not below flood RMR %.3f", treeRMR, floodRMR)
	}

	// The optimizer must be live: pings answered, RTT estimates flowing in,
	// stats plumbed through. (Whether swaps complete depends on loopback RTT
	// jitter, so only the machinery is asserted.)
	measured := 0
	for _, a := range tree.agents {
		if _, ok := a.OptimizerStats(); !ok {
			t.Fatal("OptimizerStats not available with Optimize set")
		}
		if _, ok := a.MeanLinkCost(); ok {
			measured++
		}
	}
	if measured == 0 {
		t.Error("no agent measured any active-link RTT")
	}
	t.Logf("optimizer: %d/%d agents hold RTT estimates for active links", measured, n)

	if _, ok := tree.agents[0].PlumtreeStats(); !ok {
		t.Error("PlumtreeStats not available in plumtree mode")
	}
	if _, ok := flood.agents[0].PlumtreeStats(); ok {
		t.Error("PlumtreeStats reported in flood mode")
	}
}

// neighborEvent is one NeighborUp (up) or NeighborDown callback as an agent
// reported it; its index in the log is its order.
type neighborEvent struct {
	up     bool
	peer   id.ID
	reason core.DownReason
}

// neighborLog collects an agent's neighbor callbacks in order. The callbacks
// run under the agent lock, the test reads from its own goroutine.
type neighborLog struct {
	mu     sync.Mutex
	events []neighborEvent
}

func (l *neighborLog) record(ev neighborEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

func (l *neighborLog) snapshot() []neighborEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]neighborEvent(nil), l.events...)
}

// TestAgentTraceNeighborEvents records the neighbor callbacks of live agents
// and asserts the NeighborUp/NeighborDown ordering of a join/leave over TCP:
// the join raises the link at both ends before anything lowers it, and the
// surviving end records exactly one NeighborDown — after its NeighborUp —
// when the peer's process dies (TCP reset as failure detector).
func TestAgentTraceNeighborEvents(t *testing.T) {
	mk := func(seed uint64) (*Agent, *neighborLog) {
		log := &neighborLog{}
		a, err := NewAgent("127.0.0.1:0", AgentConfig{
			CyclePeriod: 50 * time.Millisecond,
			Seed:        seed,
			OnNeighborUp: func(peer id.ID) {
				log.record(neighborEvent{up: true, peer: peer})
			},
			OnNeighborDown: func(peer id.ID, reason core.DownReason) {
				log.record(neighborEvent{peer: peer, reason: reason})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return a, log
	}
	a, logA := mk(1)
	defer a.Close()
	b, logB := mk(2)
	defer b.Close()

	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	upAt := waitEvent(t, logA, true, b.Self())
	waitEvent(t, logB, true, a.Self())
	for _, ev := range logA.snapshot() {
		if !ev.up {
			t.Fatalf("NeighborDown before any leave: %+v", ev)
		}
	}

	_ = b.Close()
	downAt := waitEvent(t, logA, false, b.Self())
	events := logA.snapshot()
	if downAt <= upAt {
		t.Errorf("NeighborDown at %d not after NeighborUp at %d", downAt, upAt)
	}
	if got := events[downAt].reason; got != core.DownFailed {
		t.Errorf("down reason = %v, want %v (TCP reset)", got, core.DownFailed)
	}
	// Ordering invariant over the whole log: every Down has an earlier Up for
	// the same peer.
	for i, d := range events {
		if d.up {
			continue
		}
		ok := false
		for _, u := range events[:i] {
			if u.up && u.peer == d.peer {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("NeighborDown %+v without earlier NeighborUp", d)
		}
	}
}

// waitEvent blocks until log holds an up (or down) event for peer and returns
// its position in the log.
func waitEvent(t testing.TB, log *neighborLog, up bool, peer id.ID) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for i, ev := range log.snapshot() {
			if ev.up == up && ev.peer == peer {
				return i
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no up=%v event for peer %v; log: %+v", up, peer, log.snapshot())
	return -1
}

// TestAgentPlumtreeTimerRealClock is the real-clock scheduling regression for
// Plumtree's missing-message timer: a node that hears an IHAVE announcement
// but never the payload must GRAFT the announcer after PlumtreeTimer — once,
// not once per simulated re-queue pass, and not immediately.
func TestAgentPlumtreeTimerRealClock(t *testing.T) {
	const timer = 60 * time.Millisecond

	a, err := NewAgent("127.0.0.1:0", AgentConfig{
		Broadcast:     BroadcastPlumtree,
		PlumtreeTimer: timer,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// A bare transport plays the announcing peer: it speaks IHAVE but never
	// delivers the payload, so the agent's only path to the message is the
	// timer-driven GRAFT.
	grafts := make(chan msg.Message, 16)
	peerTr, err := Listen("127.0.0.1:0", Config{}, func(_ id.ID, m msg.Message) {
		if m.Type == msg.PlumtreeGraft {
			grafts <- m
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peerTr.Close()

	agentID := peerTr.Register(a.Addr())
	const round = 7
	sent := time.Now()
	if err := peerTr.Send(agentID, msg.Message{
		Type:   msg.PlumtreeIHave,
		Sender: peerTr.Self(),
		Round:  round,
		Hops:   1,
	}); err != nil {
		t.Fatal(err)
	}

	select {
	case g := <-grafts:
		elapsed := time.Since(sent)
		if g.Round != round || !g.Accept {
			t.Errorf("graft = %v, want retransmission request for round %d", g, round)
		}
		// The graft must wait out the timer (generous lower bound to absorb
		// scheduling noise), not fire on arrival as the simulator's
		// zero-pass expiry would.
		if elapsed < timer/2 {
			t.Errorf("graft after %v: timer did not delay it (want ≥ %v)", elapsed, timer/2)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("missing-message timer never fired a GRAFT")
	}

	// Exactly one shot per arming: the TTL re-queue passes of the simulator
	// must not replay as extra wall-clock grafts.
	select {
	case g := <-grafts:
		t.Fatalf("second graft %v after the timer already fired", g)
	case <-time.After(5 * timer):
	}
}
