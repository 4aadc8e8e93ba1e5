package sim

// Whole-stack allocation and aliasing pins for the copy-on-write message
// regime (see "Message ownership" in package peer): broadcast fan-out must
// share one payload buffer across every delivery, per-hop mutation must stay
// on struct copies, and the steady-state delivery path through the full
// HyParView + broadcast stack must allocate nothing.

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"hyparview/internal/core"
	"hyparview/internal/id"
	"hyparview/internal/msg"
)

// TestBroadcastSteadyStateZeroAlloc pins the acceptance criterion across the
// whole stack: one full-cluster broadcast — source Broadcast, every
// delivery, every forward, tracker accounting, drain — allocates nothing
// once warm. This subsumes the per-package pins: a regression in core's
// GossipTargets, netsim's dispatch, or the harness shows up here.
func TestBroadcastSteadyStateZeroAlloc(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 300, Seed: 1})
	c.Stabilize(2)
	for i := 0; i < 3; i++ { // warm vectors, arenas, scratch buffers
		if rel := c.Broadcast(); rel != 1.0 {
			t.Fatalf("warm-up reliability %v, want 1.0", rel)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if rel := c.Broadcast(); rel != 1.0 {
			t.Fatal("reliability dropped during measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state full-stack broadcast allocates %.1f/op, want 0", allocs)
	}
	firstBroadcastsAllocateNothing(t, c)
}

// firstBroadcastsAllocateNothing broadcasts from one node after another that
// has never been a source. Warm is a property of the cluster, not of the
// source: a source hands the broadcast layer its whole active view, one
// neighbour more than any forward did, and must have room for it already.
// AllocsPerRun averages with an integer division, so a loop over random,
// mostly new sources reads 0 even when almost every one of them allocates
// once; here every source is measured on its own.
func firstBroadcastsAllocateNothing(t *testing.T, c *Cluster) {
	t.Helper()
	ids := c.IDs()
	next := len(ids)
	fresh := func() {
		next--
		round := c.Tracker.NextRound()
		c.Gossiper(ids[next]).Broadcast(round, nil)
		c.Sim.Drain()
		if got := c.Tracker.Delivered(round); got != len(ids) {
			t.Fatalf("broadcast from %v delivered to %d of %d", ids[next], got, len(ids))
		}
		c.Tracker.Forget(round)
	}
	for i := 0; i < 50; i++ { // each call runs fresh twice, measuring the second
		if allocs := testing.AllocsPerRun(1, fresh); allocs != 0 {
			t.Fatalf("the first broadcast from %v allocates %.0f, want 0", ids[next], allocs)
		}
	}
}

// TestBroadcastSteadyStateZeroAllocPlumtree is the same pin over Plumtree:
// eager pushes, lazy IHAVEs, prune/graft control traffic and the tree
// convergence already behind it must all run allocation-free.
func TestBroadcastSteadyStateZeroAllocPlumtree(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 300, Seed: 1, Broadcast: BroadcastPlumtree})
	c.Stabilize(2)
	for i := 0; i < 10; i++ { // converge the tree, then warm
		if rel := c.Broadcast(); rel != 1.0 {
			t.Fatalf("warm-up reliability %v, want 1.0", rel)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if rel := c.Broadcast(); rel != 1.0 {
			t.Fatal("reliability dropped during measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state plumtree broadcast allocates %.1f/op, want 0", allocs)
	}
}

// TestShardedBroadcastSteadyStateZeroAlloc extends the zero-alloc pin to four
// shards: once the per-shard bucket vectors, output logs and arenas are warm,
// a full-cluster broadcast through the 4-shard barrier loop — wave formation,
// parallel delivery, canonical merge — must allocate nothing, exactly like
// the one-shard run above.
func TestShardedBroadcastSteadyStateZeroAlloc(t *testing.T) {
	for _, bcast := range []BroadcastProtocol{BroadcastGossip, BroadcastPlumtree} {
		c := NewCluster(HyParView, Options{N: 300, Seed: 1, Shards: 4, Broadcast: bcast})
		c.Stabilize(2)
		for i := 0; i < 10; i++ { // warm shard vectors, pools and scratch buffers
			if rel := c.Broadcast(); rel != 1.0 {
				t.Fatalf("broadcast=%d: warm-up reliability %v, want 1.0", bcast, rel)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if rel := c.Broadcast(); rel != 1.0 {
				t.Fatal("reliability dropped during measurement")
			}
		})
		if allocs != 0 {
			t.Fatalf("broadcast=%d: sharded steady-state broadcast allocates %.1f/op, want 0", bcast, allocs)
		}
		if bcast == BroadcastGossip { // a new Plumtree source reshapes the tree (prunes, grafts, timers): not a steady state
			firstBroadcastsAllocateNothing(t, c)
		}
	}
}

// TestRunCycleDrainsAllocateNothing pins the path benchmark set-up rides on:
// a membership cycle is one OnCycle and one near-empty Drain per node. What a
// steady-state cycle allocates is the protocol's — two frozen shuffle lists
// per node, the request's and the reply's (see "Message ownership" in package
// peer) — plus the cycle's node order, and the figure is exact: every walk
// ends in exactly one reply (a relay never forwards to the origin) and
// nothing else on the path allocates. The 300 Drains add nothing, at one
// shard or two (netsim's TestNearEmptyDrainIsFree is the engine-only pin).
func TestRunCycleDrainsAllocateNothing(t *testing.T) {
	for _, shards := range []int{1, 2} {
		const n = 300
		c := NewCluster(HyParView, Options{N: n, Seed: 1, Shards: shards})
		c.Stabilize(20)
		if allocs := testing.AllocsPerRun(20, c.Sim.RunCycle); allocs != 2*n+1 {
			t.Errorf("shards=%d: a steady-state cycle allocates %.0f, want %d (2 per node + 1)", shards, allocs, 2*n+1)
		}
	}
}

// TestNodeOwnsNoPassiveSizedScratch keeps a per-view sampling scratch from
// creeping back: in a stabilized cluster the only slices of a core.Node with
// room for a whole passive view are the view's own member array and, on the
// nodes a long repair episode visited, its two buffers (the candidates tried
// and the shuffled snapshot they are picked from).
func TestNodeOwnsNoPassiveSizedScratch(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 300, Seed: 1})
	c.Stabilize(20)
	allowed := map[string]bool{".passive.order": true, ".repairTried": true, ".pickScratch": true}
	passiveSize := core.DefaultConfig().PassiveSize
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice:
			if v.Cap() >= passiveSize && !allowed[path] {
				t.Fatalf("core.Node%s holds a slice of capacity %d (passive view: %d)", path, v.Cap(), passiveSize)
			}
		}
	}
	for _, nodeID := range c.IDs() {
		walk(reflect.ValueOf(c.Membership(nodeID).(*core.Node)).Elem(), "")
	}
}

// TestShardedFootprintPerNode pins the sharded engine's memory budget: the
// marginal heap cost of a stabilized flood-broadcast cluster node — protocol
// state, engine slot, shard bucket storage, tracker accounting — must stay
// within the documented budget (see docs/EXPERIMENTS.md, "Breaking the
// million-node barrier"). The measured figure is ~3.2 KiB/node, of which the
// gossip layer's seen ring is 1 KiB; the 5 KiB budget is tight enough to
// notice a second kilobyte-sized per-node structure as well as a per-node
// goroutine, an unpooled per-wave allocation surviving drain, or an
// accidental O(n) structure per shard. Flood is the
// configuration the 1M-node claim is made for; Plumtree adds a fixed
// ~194 KiB/node of round bookkeeping (plumtree.DefaultCacheWindow rounds of
// seen and missing state plus the payload-retention ring) on top, which is a
// protocol design constant, not an engine cost.
func TestShardedFootprintPerNode(t *testing.T) {
	const n = 20_000
	const budget = 5 << 10 // bytes per node

	measure := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := measure()
	c := NewCluster(HyParView, Options{N: n, Seed: 1, Shards: 4})
	c.Stabilize(3)
	c.MeasureBurst(2)
	after := measure()
	runtime.KeepAlive(c)

	perNode := (after - before) / n
	t.Logf("sharded cluster footprint: %d bytes/node (%d nodes, %.1f MiB total)",
		perNode, n, float64(after-before)/(1<<20))
	if perNode > budget {
		t.Errorf("footprint = %d bytes/node, budget %d", perNode, budget)
	}
}

// TestShardedEngineReleasesPayload is the retention half of the footprint
// budget: the sharded engine stores message bodies in per-wave arenas and a
// hold slab, both recycled, and neither may keep a delivered payload alive.
// After a 1 MiB broadcast has drained and two further broadcasts have turned
// the arenas over (and restaged every node's forwarding scratch), nothing in
// the cluster references the payload any more.
func TestShardedEngineReleasesPayload(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 300, Seed: 1, Shards: 2})
	c.Stabilize(2)

	payload := make([]byte, 1<<20)
	freed := make(chan struct{})
	runtime.SetFinalizer(&payload[0], func(*byte) { close(freed) })
	round := c.Tracker.NextRound()
	c.Gossiper(c.IDs()[0]).Broadcast(round, payload)
	c.Sim.Drain()
	if got := c.Tracker.Delivered(round); got != 300 {
		t.Fatalf("payload broadcast delivered to %d of 300", got)
	}
	payload = nil
	for i := 0; i < 2; i++ {
		if rel := c.Broadcast(); rel != 1.0 {
			t.Fatalf("follow-up broadcast reliability %v, want 1.0", rel)
		}
	}
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Error("a drained broadcast's payload is still referenced two broadcasts later")
	}
	runtime.KeepAlive(c)
}

// TestPayloadFanOutSharesOneBuffer proves the copy-on-write half of the
// regime: every copy of a broadcast payload crossing the simulated wire
// aliases the source's single backing array (no Clone-style deep copies),
// and after the broadcast the buffer is byte-identical to what was sent —
// no layer mutated the shared bytes.
func TestPayloadFanOutSharesOneBuffer(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 200, Seed: 1})
	c.Stabilize(2)

	payload := []byte("frozen-after-send payload")
	orig := append([]byte(nil), payload...)
	base := unsafe.SliceData(payload)

	copies, aliased := 0, 0
	c.Sim.Tap = func(_, _ id.ID, m msg.Message) {
		if m.Type != msg.Gossip || m.Payload == nil {
			return
		}
		copies++
		if unsafe.SliceData(m.Payload) == base {
			aliased++
		}
	}
	defer func() { c.Sim.Tap = nil }()

	round := c.Tracker.NextRound()
	c.Gossiper(c.IDs()[0]).Broadcast(round, payload)
	c.Sim.Drain()

	if delivered := c.Tracker.Delivered(round); delivered != 200 {
		t.Fatalf("delivered %d of 200", delivered)
	}
	if copies == 0 {
		t.Fatal("tap saw no payload traffic")
	}
	if aliased != copies {
		t.Fatalf("%d of %d wire copies aliased the original buffer; want all (zero-copy fan-out)", aliased, copies)
	}
	if !bytes.Equal(payload, orig) {
		t.Fatalf("shared payload mutated during dissemination: %q", payload)
	}
}

// TestHopMutationStaysOnStructCopy proves the write half of copy-on-write:
// forwarders increment Hops on their own struct copy, so observed hop counts
// rise along paths while every copy keeps sharing the one payload buffer —
// one node's mutation is never visible through another's copy.
func TestHopMutationStaysOnStructCopy(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 200, Seed: 1})
	c.Stabilize(2)

	hopsSeen := map[uint16]int{}
	c.Sim.Tap = func(_, _ id.ID, m msg.Message) {
		if m.Type == msg.Gossip && m.Payload != nil {
			hopsSeen[m.Hops]++
		}
	}
	defer func() { c.Sim.Tap = nil }()

	round := c.Tracker.NextRound()
	c.Gossiper(c.IDs()[0]).Broadcast(round, []byte("x"))
	c.Sim.Drain()

	if len(hopsSeen) < 2 {
		t.Fatalf("expected multiple distinct hop counts on the wire, saw %v", hopsSeen)
	}
	// Hop counts must start at 0 (source's own sends); if a forwarder's
	// increment leaked into a shared struct, the source-adjacent copies
	// would show inflated hops.
	if hopsSeen[0] == 0 {
		t.Fatalf("no zero-hop copies observed: %v", hopsSeen)
	}
}

// TestShuffleListFrozenInFlight proves relayed SHUFFLE walks share the
// origin's Nodes list without mutating it: TTL decrements happen on struct
// copies while every relay carries the identical identifier list.
func TestShuffleListFrozenInFlight(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 100, Seed: 1})
	c.Stabilize(2)

	type shuffleObs struct {
		ttl   uint8
		nodes []id.ID
		data  *id.ID
	}
	var walks map[id.ID][]shuffleObs // keyed by walk origin (Subject)
	c.Sim.Tap = func(_, _ id.ID, m msg.Message) {
		if m.Type != msg.Shuffle || m.Nodes == nil {
			return
		}
		walks[m.Subject] = append(walks[m.Subject], shuffleObs{
			ttl:   m.TTL,
			nodes: append([]id.ID(nil), m.Nodes...),
			data:  unsafe.SliceData(m.Nodes),
		})
	}
	defer func() { c.Sim.Tap = nil }()

	walks = make(map[id.ID][]shuffleObs)
	c.Sim.RunCycle() // every node initiates one shuffle

	relayed := 0
	for origin, obs := range walks {
		first := obs[0]
		for _, o := range obs[1:] {
			relayed++
			if o.data != first.data {
				t.Fatalf("walk from %v re-allocated its Nodes list mid-flight (copy instead of share)", origin)
			}
			if o.ttl >= first.ttl {
				t.Fatalf("walk from %v: TTL did not decrease along the relay (%d -> %d)", origin, first.ttl, o.ttl)
			}
			if len(o.nodes) != len(first.nodes) {
				t.Fatalf("walk from %v: Nodes list changed length in flight", origin)
			}
			for i := range o.nodes {
				if o.nodes[i] != first.nodes[i] {
					t.Fatalf("walk from %v: shared Nodes list mutated in flight at %d", origin, i)
				}
			}
		}
	}
	if relayed == 0 {
		t.Skip("no shuffle walk was relayed this cycle; topology too small")
	}
}
