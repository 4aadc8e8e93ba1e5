package plumtree

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"hyparview/internal/id"
	"hyparview/internal/msg"
)

// reachablePayloadBytes sums the capacity of every distinct byte buffer the
// node itself keeps alive: it walks the node's in-place fields and the
// elements of its arrays and slices — the retention ring, the staging
// message, and every value slot of the round caches, occupied or parked —
// by reflection, so a payload slice added anywhere in that state is counted
// without this test knowing about it. Pointers and interfaces (environment,
// membership) are not followed: they are not the node's.
func reachablePayloadBytes(n *Node) int {
	return walkBytes(reflect.ValueOf(n).Elem(), make(map[unsafe.Pointer]bool))
}

func walkBytes(v reflect.Value, counted map[unsafe.Pointer]bool) int {
	if !holdsBytes(v.Type()) {
		return 0
	}
	total := 0
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			total += walkBytes(v.Field(i), counted)
		}
	case reflect.Slice:
		if v.Type() == bytesType {
			if p := v.UnsafePointer(); p != nil && !counted[p] {
				counted[p] = true
				total += v.Cap()
			}
			break
		}
		v = v.Slice(0, v.Cap()) // parked values live beyond len too
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			total += walkBytes(v.Index(i), counted)
		}
	}
	return total
}

var (
	bytesType = reflect.TypeOf([]byte(nil))
	holdsMemo = map[reflect.Type]bool{}
)

// holdsBytes reports whether a value of type t can hold a []byte in place
// (memoized: it prunes the walk over the pointer-free cache value arrays).
func holdsBytes(t reflect.Type) bool {
	if known, ok := holdsMemo[t]; ok {
		return known
	}
	holds := false
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField() && !holds; i++ {
			holds = holdsBytes(t.Field(i).Type)
		}
	case reflect.Slice:
		holds = t == bytesType || holdsBytes(t.Elem())
	case reflect.Array:
		holds = holdsBytes(t.Elem())
	}
	holdsMemo[t] = holds
	return holds
}

// stampedPayload is a size-byte payload that names its round and carries a
// checksum, so a delivery can be checked for being the right bytes, whole.
func stampedPayload(round uint64, size int) []byte {
	p := make([]byte, size)
	binary.BigEndian.PutUint64(p, round)
	for i := 8; i < size-4; i++ {
		p[i] = byte(round) + byte(i)
	}
	binary.BigEndian.PutUint32(p[size-4:], crc32.ChecksumIEEE(p[:size-4]))
	return p
}

func payloadIntact(round uint64, p []byte) bool {
	return len(p) >= 12 &&
		binary.BigEndian.Uint64(p) == round &&
		binary.BigEndian.Uint32(p[len(p)-4:]) == crc32.ChecksumIEEE(p[:len(p)-4])
}

// TestRetentionBoundedInBytes runs the tcp_tree_large shape in virtual time:
// 16 KiB payloads from rotating sources over a static mesh, one interior tree
// node failed mid-run. Delivery must stay exactly-once and intact while the
// payload bytes each node keeps reachable never exceed the byte budget (plus
// one payload of slack), however many rounds the seen window still covers.
func TestRetentionBoundedInBytes(t *testing.T) {
	const (
		n           = 30
		rounds      = 300
		payloadSize = 16 << 10
		bound       = retainBudget + payloadSize
	)
	c := newStaticCluster(t, n, 5, Config{TimerDelay: 2, ReportPeerDown: true})
	deliveries := make(map[id.ID]map[uint64]int, n)
	for _, nodeID := range c.ids {
		deliveries[nodeID] = make(map[uint64]int)
	}
	c.onDeliver = func(node id.ID, round uint64, payload []byte) {
		deliveries[node][round]++
		if len(payload) != payloadSize || !payloadIntact(round, payload) {
			t.Errorf("node %v delivered round %d damaged (%d bytes)", node, round, len(payload))
		}
	}
	checkBound := func(when string) {
		t.Helper()
		for _, nodeID := range c.ids {
			if b := reachablePayloadBytes(c.nodes[nodeID]); b > bound {
				t.Fatalf("%s: node %v keeps %d payload bytes reachable, bound %d", when, nodeID, b, bound)
			}
		}
	}
	grafts := func() (sent, unserved uint64) {
		for _, pn := range c.nodes {
			sent += pn.Control().GraftsSent
			unserved += pn.Control().GraftsUnserved
		}
		return
	}
	// quarantine confines round to the node that broadcasts it: every frame
	// that mentions it is lost on the wire.
	quarantine := func(round uint64) {
		c.sim.Intercept = func(_ id.ID, m *msg.Message) (*msg.Message, bool) {
			return nil, m.Round != round
		}
	}

	// A round only two nodes ever hold, one of them long ago: ghost is
	// published by `early` now and by `late` after the run, each time with
	// the wire cut, so at the end early has aged its payload out and late
	// still retains it.
	const ghost = uint64(1 << 40)
	requester, early, late := id.ID(20), id.ID(19), id.ID(21) // 19 and 21 neighbor 20
	ghostPayload := stampedPayload(ghost, payloadSize)
	quarantine(ghost)
	c.nodes[early].Broadcast(ghost, ghostPayload)
	c.sim.Drain()
	c.sim.Intercept = nil

	var victim id.ID
	var graftsAtFailure uint64
	sources := slices.Clone(c.ids)
	for r := uint64(1); r <= rounds; r++ {
		if r == rounds/2 {
			// Fail an interior tree node, so its children lose their payload
			// path and GRAFT recovery actually happens.
			for _, nodeID := range c.ids {
				far := nodeID != requester && nodeID != early && nodeID != late
				if far && len(c.nodes[nodeID].EagerPeers()) >= 2 {
					victim = nodeID
					break
				}
			}
			if victim.IsNil() {
				t.Fatal("no interior tree node to fail")
			}
			graftsAtFailure, _ = grafts()
			c.sim.Fail(victim)
			sources = slices.DeleteFunc(sources, func(s id.ID) bool { return s == victim })
		}
		src := sources[int(r)%len(sources)]
		c.nodes[src].Broadcast(r, stampedPayload(r, payloadSize))
		c.sim.Drain()
		checkBound("after round")
	}
	for _, nodeID := range c.sim.AliveIDs() {
		for r := uint64(1); r <= rounds; r++ {
			if deliveries[nodeID][r] != 1 {
				t.Fatalf("node %v delivered round %d %d times, want exactly once", nodeID, r, deliveries[nodeID][r])
			}
		}
	}
	sent, unserved := grafts()
	if sent == graftsAtFailure {
		t.Error("the failure triggered no GRAFT: recovery path not exercised")
	}
	if unserved != 0 {
		t.Errorf("%d grafts went unserved during the run: every repair was for a fresh round", unserved)
	}

	// The horizon is the budget, not the seen window: early still remembers
	// the ghost round, but no longer holds its bytes.
	if !c.nodes[early].Seen(ghost) {
		t.Fatal("ghost round left the seen window; the scenario needs rounds < DefaultCacheWindow")
	}
	quarantine(ghost)
	c.nodes[late].Broadcast(ghost, ghostPayload)
	c.sim.Drain()
	c.sim.Intercept = nil

	// The requester hears of the ghost round from both; its first GRAFT goes
	// to early, which must answer with no frame at all, and the timer falls
	// through to late, which serves it.
	ghostFrames := map[id.ID]int{}
	c.sim.Tap = func(from, _ id.ID, m msg.Message) {
		if m.Type == msg.PlumtreeGossip && m.Round == ghost {
			ghostFrames[from]++
			if !payloadIntact(ghost, m.Payload) {
				t.Errorf("%v sent the ghost round with a damaged payload (%d bytes)", from, len(m.Payload))
			}
		}
	}
	for _, announcer := range []id.ID{early, late} {
		ihave := msg.Message{Type: msg.PlumtreeIHave, Sender: announcer, Round: ghost, Hops: 0}
		if err := c.sim.Inject(announcer, requester, ihave); err != nil {
			t.Fatal(err)
		}
	}
	c.sim.Drain()
	c.sim.Tap = nil
	if got := c.nodes[early].Control().GraftsUnserved; got != 1 {
		t.Errorf("early announcer counts %d unserved grafts, want 1", got)
	}
	if ghostFrames[early] != 0 {
		t.Errorf("early announcer answered a graft for a dropped payload with %d gossip frames", ghostFrames[early])
	}
	if ghostFrames[late] == 0 {
		t.Error("late announcer never retransmitted the ghost round")
	}
	for _, nodeID := range c.sim.AliveIDs() {
		if deliveries[nodeID][ghost] != 1 {
			t.Errorf("node %v delivered the ghost round %d times, want once (recovered through the second announcer)",
				nodeID, deliveries[nodeID][ghost])
		}
	}
	checkBound("after ghost recovery")

	for _, nodeID := range c.ids {
		c.nodes[nodeID].ResetSeen()
		if b := reachablePayloadBytes(c.nodes[nodeID]); b != 0 {
			t.Errorf("node %v keeps %d payload bytes reachable after ResetSeen", nodeID, b)
		}
	}
}

// TestOversizePayloadKeptUntilNext: the newest payload is always retained,
// even when it alone exceeds the budget — otherwise a large message could
// never be repaired at all — and goes the moment the next one arrives.
func TestOversizePayloadKeptUntilNext(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{}, nil)
	big := make([]byte, retainBudget+1)
	n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: 1, Payload: big})
	env.sent = nil

	n.Deliver(3, &msg.Message{Type: msg.PlumtreeGraft, Sender: 3, Round: 1, Accept: true})
	gossips := env.sentOfType(msg.PlumtreeGossip)
	if len(gossips) != 1 || len(gossips[0].m.Payload) != len(big) {
		t.Fatalf("graft for the oversize round answered with %d frames, want one carrying its payload", len(gossips))
	}

	n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: 2, Payload: []byte("x")})
	if b := reachablePayloadBytes(n); b != 1 {
		t.Errorf("%d payload bytes reachable after the next round, want 1", b)
	}
	env.sent = nil
	n.Deliver(3, &msg.Message{Type: msg.PlumtreeGraft, Sender: 3, Round: 1, Accept: true})
	if got := env.sentOfType(msg.PlumtreeGossip); len(got) != 0 {
		t.Errorf("graft for a dropped payload answered with %d frames", len(got))
	}
	if !n.Seen(1) {
		t.Error("dropping the payload forgot the round: duplicate detection must outlive retention")
	}
	ctl := n.Control()
	if ctl.GraftsRecvd != 2 || ctl.GraftsUnserved != 1 {
		t.Errorf("grafts received/unserved = %d/%d, want 2/1", ctl.GraftsRecvd, ctl.GraftsUnserved)
	}
	if !reflect.DeepEqual(n.EagerPeers(), []id.ID{2, 3}) {
		t.Errorf("eager = %v: an unserved graft must still promote the link", n.EagerPeers())
	}
}

// TestEmptyPayloadsBypassRing: rounds delivered with no payload (every round
// the simulator's experiments send) retain nothing, yet a GRAFT for one is
// served — "delivered empty" is not "payload dropped".
func TestEmptyPayloadsBypassRing(t *testing.T) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: []id.ID{2, 3}}
	n := New(env, mem, Config{}, nil)
	n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: 1, Payload: []byte("kept")})
	for r := uint64(2); r < DefaultCacheWindow; r++ {
		n.Deliver(2, &msg.Message{Type: msg.PlumtreeGossip, Sender: 2, Round: r, Hops: 4})
	}
	if n.ring.n != 1 || n.ring.bytes != 4 {
		t.Fatalf("ring holds %d entries / %d bytes, want the one non-empty payload", n.ring.n, n.ring.bytes)
	}
	env.sent = nil
	n.Deliver(3, &msg.Message{Type: msg.PlumtreeGraft, Sender: 3, Round: 7, Accept: true})
	n.Deliver(3, &msg.Message{Type: msg.PlumtreeGraft, Sender: 3, Round: 1, Accept: true})
	gossips := env.sentOfType(msg.PlumtreeGossip)
	if len(gossips) != 2 {
		t.Fatalf("retransmissions = %v, want both grafts served", gossips)
	}
	if g := gossips[0].m; g.Round != 7 || g.Hops != 5 || len(g.Payload) != 0 {
		t.Errorf("empty round retransmitted as %+v", g)
	}
	if g := gossips[1].m; g.Round != 1 || string(g.Payload) != "kept" {
		t.Errorf("oldest payload retransmitted as %+v: empty rounds must not age it out", g)
	}
	if got := n.Control().GraftsUnserved; got != 0 {
		t.Errorf("unserved grafts = %d, want 0", got)
	}
}
