package pubsub

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"hyparview/internal/gossip"
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
	scratch   []id.ID // reused by GossipTargets, as real memberships do
}

var _ peer.Membership = (*fakeMembership)(nil)

func (f *fakeMembership) Deliver(_ id.ID, m *msg.Message) { f.delivered = append(f.delivered, *m) }
func (f *fakeMembership) OnCycle()                        { f.cycles++ }
func (f *fakeMembership) Neighbors() []id.ID              { return append([]id.ID(nil), f.neighbors...) }
func (f *fakeMembership) OnPeerDown(p id.ID)              { f.downs = append(f.downs, p) }

func (f *fakeMembership) GossipTargets(fanout int, exclude id.ID) []id.ID {
	out := f.scratch[:0]
	for _, n := range f.neighbors {
		if n != exclude {
			out = append(out, n)
		}
	}
	if fanout > 0 && len(out) > fanout {
		out = out[:fanout]
	}
	f.scratch = out
	return out
}

// fakeEnv records sends and provides a manually advanced scheduler.
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

// newStack builds a Router over a real flood gossip.Node on a fake
// environment with the given neighbors.
func newStack(cfg Config, neighbors ...id.ID) (*Router, *fakeEnv, *fakeMembership) {
	env := newFakeEnv(1)
	mem := &fakeMembership{neighbors: neighbors}
	if cfg.NextRound == nil {
		var round uint64
		cfg.NextRound = func() uint64 { round++; return round }
	}
	r := New(cfg)
	inner := gossip.New(env, mem, gossip.Config{Mode: gossip.Flood}, r.OnBroadcast)
	r.Bind(env, inner)
	return r, env, mem
}

type got struct {
	topic   uint32
	payload string
	hops    int
}

func collect(r *Router, topic uint32, into *[]got) {
	if err := r.Subscribe(topic, func(tp uint32, p []byte, hops int) {
		*into = append(*into, got{tp, string(p), hops})
	}); err != nil {
		panic(err)
	}
}

func TestPublishDeliversToLocalSubscriberAndFloodsNeighbors(t *testing.T) {
	r, env, _ := newStack(Config{}, 2, 3)
	var rx []got
	collect(r, 7, &rx)
	if err := r.Publish(7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if len(rx) != 1 || rx[0] != (got{7, "hello", 0}) {
		t.Fatalf("local delivery = %+v", rx)
	}
	if len(env.sent) != 2 {
		t.Fatalf("flooded %d neighbors, want 2", len(env.sent))
	}
	for _, s := range env.sent {
		if s.m.Topic != 7 || string(s.m.Payload) != "hello" {
			t.Fatalf("wire message %+v", s.m)
		}
	}
}

func TestUnbatchedPublishPassesPayloadThrough(t *testing.T) {
	r, env, _ := newStack(Config{}, 2)
	payload := []byte("zero-copy")
	if err := r.Publish(3, payload); err != nil {
		t.Fatal(err)
	}
	if sent := env.sent[0].m.Payload; unsafe.SliceData(sent) != unsafe.SliceData(payload) {
		t.Error("unbatched publish copied the payload")
	}
}

func TestRemoteDeliveryUnpacksIntoSubscribers(t *testing.T) {
	r, _, _ := newStack(Config{})
	var rx []got
	collect(r, 9, &rx)
	// A remote tagged round arrives through the normal broadcast path.
	r.Deliver(5, &msg.Message{Type: msg.Gossip, Sender: 5, Round: 99, Hops: 2, Topic: 9, Payload: []byte("remote")})
	if len(rx) != 1 || rx[0] != (got{9, "remote", 3}) {
		t.Fatalf("remote delivery = %+v", rx)
	}
}

func TestZeroSubscriberTopicCountsAndDropsQuietly(t *testing.T) {
	r, env, _ := newStack(Config{}, 2)
	if err := r.Publish(4, []byte("nobody home")); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.NoSubscriber != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The round still floods: subscription tables are per-node edges, not
	// routing state.
	if len(env.sent) != 1 {
		t.Fatalf("flooded %d neighbors, want 1", len(env.sent))
	}
}

func TestPublishRejectsOutOfRangeTopics(t *testing.T) {
	r, _, _ := newStack(Config{})
	if err := r.Publish(0, nil); err == nil {
		t.Error("topic 0 accepted")
	}
	if err := r.Publish(MaxTopic+1, nil); err == nil {
		t.Error("topic beyond MaxTopic accepted")
	}
	if err := r.Subscribe(0, func(uint32, []byte, int) {}); err == nil {
		t.Error("Subscribe accepted topic 0")
	}
}

func TestBatchingAggregatesUntilSizeFlush(t *testing.T) {
	r, env, _ := newStack(Config{MaxBatch: 3}, 2)
	var rx []got
	collect(r, 5, &rx)
	must(t, r.Publish(5, []byte("a")))
	must(t, r.Publish(5, []byte("bb")))
	if len(env.sent) != 0 || r.PendingMessages() != 2 {
		t.Fatalf("premature flush: sent=%d pending=%d", len(env.sent), r.PendingMessages())
	}
	must(t, r.Publish(5, []byte("ccc"))) // reaches MaxBatch, flushes
	if len(env.sent) != 1 {
		t.Fatalf("sent %d frames, want 1", len(env.sent))
	}
	if tp := env.sent[0].m.Topic; tp != 5|batchFlag {
		t.Fatalf("frame topic = %#x, want batch-flagged 5", tp)
	}
	want := []got{{5, "a", 0}, {5, "bb", 0}, {5, "ccc", 0}}
	if len(rx) != 3 || rx[0] != want[0] || rx[1] != want[1] || rx[2] != want[2] {
		t.Fatalf("deliveries = %+v", rx)
	}
	if r.PendingMessages() != 0 {
		t.Fatalf("pending after flush = %d", r.PendingMessages())
	}
}

func TestSingleMessageFlushHasNoWrapOverhead(t *testing.T) {
	r, env, _ := newStack(Config{MaxBatch: 8}, 2)
	must(t, r.Publish(6, []byte("solo")))
	r.Flush()
	if len(env.sent) != 1 {
		t.Fatalf("sent %d, want 1", len(env.sent))
	}
	m := env.sent[0].m
	if m.Topic != 6 {
		t.Fatalf("topic = %#x, want unflagged 6", m.Topic)
	}
	if !bytes.Equal(m.Payload, []byte("solo")) {
		t.Fatalf("payload = %q, want raw bytes with no framing", m.Payload)
	}
}

func TestFlushTickDrainsPendingBatches(t *testing.T) {
	r, env, _ := newStack(Config{MaxBatch: 100, FlushInterval: 10}, 2)
	var rx []got
	collect(r, 2, &rx)
	must(t, r.Publish(2, []byte("buffered")))
	if len(env.sent) != 0 {
		t.Fatal("flushed before the tick")
	}
	for _, m := range env.ManualScheduler.Advance(10) {
		r.Deliver(env.self, &m)
	}
	if len(env.sent) != 1 || len(rx) != 1 {
		t.Fatalf("after tick: sent=%d delivered=%d", len(env.sent), len(rx))
	}
}

func TestFlushOrderIsFirstBufferedFirstSent(t *testing.T) {
	r, env, _ := newStack(Config{MaxBatch: 100}, 2)
	must(t, r.Publish(30, []byte("x")))
	must(t, r.Publish(10, []byte("y")))
	must(t, r.Publish(30, []byte("z")))
	must(t, r.Publish(20, []byte("w")))
	r.Flush()
	var order []uint32
	for _, s := range env.sent {
		order = append(order, s.m.Topic&^batchFlag)
	}
	if len(order) != 3 || order[0] != 30 || order[1] != 10 || order[2] != 20 {
		t.Fatalf("flush order = %v, want [30 10 20]", order)
	}
}

func TestCloseAndPeerDownFlushPending(t *testing.T) {
	r, env, mem := newStack(Config{MaxBatch: 100}, 2)
	must(t, r.Publish(1, []byte("a")))
	r.OnPeerDown(2)
	if len(env.sent) == 0 {
		t.Fatal("OnPeerDown did not flush")
	}
	if len(mem.downs) != 1 || mem.downs[0] != 2 {
		t.Fatalf("failure not forwarded: %v", mem.downs)
	}
	env.sent = nil
	must(t, r.Publish(1, []byte("b")))
	r.Close()
	if len(env.sent) != 1 {
		t.Fatal("Close did not flush")
	}
	if r.PendingMessages() != 0 {
		t.Fatal("pending survived Close")
	}
}

func TestOversizedPayloadBypassesBatching(t *testing.T) {
	r, env, _ := newStack(Config{MaxBatch: 4, MaxBatchBytes: 16}, 2)
	must(t, r.Publish(3, []byte("ab"))) // buffered
	big := bytes.Repeat([]byte("B"), 64)
	must(t, r.Publish(3, big)) // flushes the pending frame, then goes raw
	if len(env.sent) != 2 {
		t.Fatalf("sent %d, want 2 (pending flush + raw oversize)", len(env.sent))
	}
	if env.sent[0].m.Topic != 3 || string(env.sent[0].m.Payload) != "ab" {
		t.Fatalf("first send %+v, want the unwrapped pending message", env.sent[0].m)
	}
	m := env.sent[1].m
	if m.Topic != 3 || !bytes.Equal(m.Payload, big) {
		t.Fatalf("oversize send %+v", m)
	}
	if unsafe.SliceData(m.Payload) != unsafe.SliceData(big) {
		t.Error("oversized payload was copied")
	}
}

func TestBatchFrameOrderingWithinTopicIsFIFO(t *testing.T) {
	r, _, _ := newStack(Config{MaxBatch: 2, MaxBatchBytes: 8}, 2)
	var rx []got
	collect(r, 5, &rx)
	for i := 0; i < 6; i++ {
		must(t, r.Publish(5, []byte{byte('a' + i)}))
	}
	r.Flush()
	if len(rx) != 6 {
		t.Fatalf("delivered %d, want 6", len(rx))
	}
	for i, g := range rx {
		if g.payload != string([]byte{byte('a' + i)}) {
			t.Fatalf("delivery %d = %q, order broken", i, g.payload)
		}
	}
}

func TestMalformedBatchFrameStopsCleanly(t *testing.T) {
	r, _, _ := newStack(Config{})
	var rx []got
	collect(r, 4, &rx)
	// One valid entry, then an entry claiming more bytes than remain.
	frame := []byte{1, 'k', 60}
	r.OnBroadcast(1, 4|batchFlag, frame, 0)
	if len(rx) != 1 || rx[0].payload != "k" {
		t.Fatalf("deliveries = %+v, want the valid prefix entry", rx)
	}
	if r.Stats().Malformed != 1 {
		t.Fatalf("Malformed = %d, want 1", r.Stats().Malformed)
	}
	// An empty-entry frame must terminate (uvarint 0 consumes one byte).
	r.OnBroadcast(2, 4|batchFlag, []byte{0, 0, 0}, 0)
	if n := len(rx); n != 4 {
		t.Fatalf("deliveries after empty entries = %d, want 4", n)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
