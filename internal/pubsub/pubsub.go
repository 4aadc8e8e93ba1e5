// Package pubsub layers topic-based publish/subscribe over any broadcast
// protocol in this repository (flood gossip or Plumtree), turning the
// protocol-internal dissemination machinery into the API a product would
// actually call: Publish(topic, payload) on any node, per-topic Subscribe
// handlers on every interested node.
//
// # Topic-tagged rounds
//
// Topics ride the existing broadcast rounds rather than building per-topic
// overlays: every published message is broadcast over the shared overlay
// with msg.Message.Topic carrying the topic identifier, and the subscription
// table filters at the delivery edge. This is the classic flat-mesh design
// point — dissemination cost is paid per message cluster-wide, delivery cost
// per subscriber — chosen because the HyParView/Plumtree overlay is exactly
// one robust mesh and the paper's reliability results apply per round
// regardless of the tag. The tag is a scalar field: per-hop forwarding copies
// it for free under the copy-on-write regime, and Plumtree's payload cache
// retains it so GRAFT retransmissions reproduce the tag.
//
// # Batching
//
// Hot topics amortize the per-message overlay cost (header bytes, IHAVE
// announcements, per-hop bookkeeping) by concatenating consecutive publishes
// into one batch frame, flushed when the frame reaches a size threshold
// (Config.MaxBatch messages or Config.MaxBatchBytes bytes) or when the
// periodic flush tick fires (Config.FlushInterval via peer.Scheduler.Every —
// msg.TickPubSubFlush), whichever comes first. Batch frames are tagged with
// the topic's identifier plus the high batchFlag bit; a flush that finds
// exactly one buffered message sends it raw, untagged by the flag, so light
// traffic never pays the frame overhead.
//
// Ownership follows the rules on package peer: a payload handed to Publish
// is frozen from that moment. On the unbatched path the caller's slice is
// passed through to the broadcaster untouched — zero copies, zero
// allocations. On the batched path the bytes are appended into the topic's
// pending frame (the one copy batching fundamentally requires); once the
// frame is handed to the broadcaster it is frozen forever — in the
// simulator, Plumtree aliases it for GRAFT retransmissions as long as its
// retention ring keeps it — so the router starts a fresh buffer per batch
// instead of recycling, one bounded allocation per flush, amortized across
// the batch. A delivered payload, and every sub-payload unpacked from a
// batch, is lent to the Handler: valid until it returns.
package pubsub

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hyparview/internal/gossip"
	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
)

// batchFlag marks a round's payload as a batch frame. It occupies the high
// bit of the 32-bit wire topic, so application topics are bounded by
// MaxTopic.
const batchFlag uint32 = 1 << 31

// MaxTopic is the largest valid application topic identifier. Topic 0 is
// reserved for untagged plain broadcasts (Broadcast without a topic).
const MaxTopic = batchFlag - 1

// ErrBadTopic is returned by Publish for topic 0 or a topic above MaxTopic.
var ErrBadTopic = errors.New("pubsub: topic out of range")

// SplitTopic decodes a wire topic tag into the application topic and whether
// the round carries a batch frame. Measurement harnesses use it to attribute
// wire traffic per topic without knowing the flag layout.
func SplitTopic(wire uint32) (topic uint32, batched bool) {
	return wire &^ batchFlag, wire&batchFlag != 0
}

// Handler is a per-subscriber delivery callback: invoked once per delivered
// message on the topic it was registered for, with the payload and the
// overlay hop count of the round that carried it. The payload is lent:
// read-only, and valid until the handler returns (on the TCP agent it lies
// in a connection's read buffer); a handler that keeps it keeps a copy (see
// package peer, "Message ownership").
type Handler func(topic uint32, payload []byte, hops int)

// Config parameterizes a Router. The zero value disables batching and the
// flush tick.
type Config struct {
	// NextRound allocates globally-unique round identifiers for published
	// messages (gossip.Tracker.NextRound in the simulator, a random source
	// on the transport). Required.
	NextRound func() uint64

	// MaxBatch enables publish-side batching when > 1: up to MaxBatch
	// consecutive publishes per topic are concatenated into one frame
	// before the size threshold forces a flush.
	MaxBatch int

	// MaxBatchBytes caps the batch frame size in bytes (default 4096 when
	// batching is enabled). A publish that would overflow the cap flushes
	// the pending frame first; a single payload larger than the cap is
	// sent unbatched.
	MaxBatchBytes int

	// FlushInterval, when > 0, registers a periodic flush tick
	// (msg.TickPubSubFlush) every FlushInterval scheduler ticks, bounding
	// the latency a buffered message can accumulate waiting for its batch
	// to fill.
	FlushInterval uint64

	// Fallback receives rounds with topic 0 — plain broadcasts published
	// beneath the pub/sub layer (Broadcast/BroadcastTopic callers). May be
	// nil.
	Fallback gossip.Delivery
}

// Stats counts the router's activity. All counters are cumulative.
type Stats struct {
	Published    uint64 // messages accepted by Publish
	Batched      uint64 // messages that entered a pending batch frame
	Flushes      uint64 // batch flushes (size-, tick-, event- or Close-driven)
	Frames       uint64 // broadcast rounds sent on behalf of Publish calls
	Delivered    uint64 // handler invocations
	NoSubscriber uint64 // delivered messages on topics with no local handler
	Malformed    uint64 // batch frames with broken framing (truncated entry)
}

// pending is one topic's open batch frame.
type pending struct {
	buf   []byte
	count int
	first int // offset of the first entry's bytes, to unwrap 1-entry batches
}

// Router is the pub/sub layer node. It wraps a gossip.Broadcaster and
// implements gossip.Broadcaster itself by delegation, so it drops into any
// slot that hosts a broadcast node (the simulator's cluster, the TCP agent)
// without interface changes; the pub/sub API (Subscribe, Publish) sits
// alongside the inherited broadcast API.
//
// Construction is two-phase because the inner broadcaster needs the router's
// delivery callback at its own construction:
//
//	r := pubsub.New(cfg)
//	inner := gossip.New(env, membership, gcfg, r.OnBroadcast)
//	r.Bind(env, inner)
//
// Router is not safe for concurrent use; like every protocol layer here it
// lives on a single-threaded event loop (the simulator's, or under the TCP
// agent's lock).
type Router struct {
	cfg   Config
	env   peer.Env
	self  id.ID
	inner gossip.Broadcaster

	subs      map[uint32][]Handler
	pend      map[uint32]*pending
	pendOrder []uint32 // topics with open frames, in first-buffer order

	batchCap int // frame buffer capacity; 0 means batching disabled

	stats Stats
}

var _ gossip.Broadcaster = (*Router)(nil)

// New builds an unbound Router. Bind must be called before traffic flows.
func New(cfg Config) *Router {
	if cfg.NextRound == nil {
		panic("pubsub: Config.NextRound is required")
	}
	r := &Router{
		cfg:  cfg,
		subs: make(map[uint32][]Handler),
		pend: make(map[uint32]*pending),
	}
	if cfg.MaxBatch > 1 {
		r.batchCap = cfg.MaxBatchBytes
		if r.batchCap <= 0 {
			r.batchCap = 4096
		}
	}
	return r
}

// Bind attaches the router to its environment and inner broadcaster and, when
// configured, registers the periodic flush tick. It must be called exactly
// once, after the inner broadcaster was constructed with OnBroadcast as its
// delivery callback.
func (r *Router) Bind(env peer.Env, inner gossip.Broadcaster) {
	if r.inner != nil {
		panic("pubsub: Bind called twice")
	}
	r.env = env
	r.self = env.Self()
	r.inner = inner
	if r.batchCap > 0 && r.cfg.FlushInterval > 0 {
		env.Every(r.cfg.FlushInterval, msg.Message{
			Type:   msg.Tick,
			Sender: r.self,
			Round:  msg.TickPubSubFlush,
		})
	}
}

// Subscribe registers fn for topic. Multiple handlers per topic are invoked
// in registration order.
func (r *Router) Subscribe(topic uint32, fn Handler) error {
	if topic == 0 || topic > MaxTopic {
		return fmt.Errorf("%w: %d", ErrBadTopic, topic)
	}
	r.subs[topic] = append(r.subs[topic], fn)
	return nil
}

// Unsubscribe removes every handler registered for topic.
func (r *Router) Unsubscribe(topic uint32) {
	delete(r.subs, topic)
}

// Publish disseminates payload on topic from this node. The payload is
// frozen from this call on (see package doc). With batching disabled the
// message is broadcast immediately; with batching enabled it is appended to
// the topic's pending frame, which is flushed by size here or by the flush
// tick later.
func (r *Router) Publish(topic uint32, payload []byte) error {
	if topic == 0 || topic > MaxTopic {
		return fmt.Errorf("%w: %d", ErrBadTopic, topic)
	}
	r.stats.Published++
	if r.batchCap == 0 {
		// Unbatched steady path: the caller's slice goes straight through,
		// no copy, no allocation.
		r.stats.Frames++
		r.inner.BroadcastTopic(r.cfg.NextRound(), topic, payload)
		return nil
	}
	need := uvarintLen(uint64(len(payload))) + len(payload)
	if need > r.batchCap {
		// Oversized for any frame: send raw, no wrap overhead.
		r.flushTopic(topic)
		r.stats.Frames++
		r.inner.BroadcastTopic(r.cfg.NextRound(), topic, payload)
		return nil
	}
	p := r.pend[topic]
	if p == nil {
		p = &pending{}
		r.pend[topic] = p
	}
	if p.count > 0 && (p.count >= r.cfg.MaxBatch || len(p.buf)+need > r.batchCap) {
		r.flushTopic(topic)
	}
	if p.count == 0 {
		if p.buf == nil {
			// Fresh frame: the previous buffer (if any) was frozen when its
			// batch was broadcast, so it cannot be recycled.
			p.buf = make([]byte, 0, r.batchCap)
		}
		r.pendOrder = append(r.pendOrder, topic)
		p.first = uvarintLen(uint64(len(payload)))
	}
	p.buf = binary.AppendUvarint(p.buf, uint64(len(payload)))
	p.buf = append(p.buf, payload...)
	p.count++
	r.stats.Batched++
	if p.count >= r.cfg.MaxBatch {
		r.flushTopic(topic)
	}
	return nil
}

// Flush broadcasts every pending batch frame now, in the deterministic order
// the topics first buffered a message. Applications call it around traffic
// lulls; the flush tick and Close call it internally.
func (r *Router) Flush() {
	if len(r.pendOrder) == 0 {
		return
	}
	// flushTopic compacts pendOrder via removeOrder; iterate over a stable
	// snapshot semantics by draining from the front until empty.
	for len(r.pendOrder) > 0 {
		r.flushTopic(r.pendOrder[0])
	}
}

// Close flushes all pending frames. The periodic flush registration (if any)
// lives as long as the node, per the Scheduler contract; subsequent ticks
// find nothing to flush.
func (r *Router) Close() {
	r.Flush()
}

// flushTopic broadcasts topic's pending frame, if any. A frame holding a
// single message is unwrapped and sent as a plain tagged round — the batch
// framing costs nothing until it pays for itself.
func (r *Router) flushTopic(topic uint32) {
	p := r.pend[topic]
	if p == nil || p.count == 0 {
		return
	}
	r.stats.Flushes++
	r.stats.Frames++
	if p.count == 1 {
		r.inner.BroadcastTopic(r.cfg.NextRound(), topic, p.buf[p.first:])
	} else {
		r.inner.BroadcastTopic(r.cfg.NextRound(), topic|batchFlag, p.buf)
	}
	// The frame is frozen now (the broadcaster may alias it indefinitely);
	// drop it so the next publish starts fresh.
	p.buf = nil
	p.count = 0
	r.removeOrder(topic)
}

// removeOrder deletes topic from the open-frame order, preserving the order
// of the rest.
func (r *Router) removeOrder(topic uint32) {
	for i, t := range r.pendOrder {
		if t == topic {
			r.pendOrder = append(r.pendOrder[:i], r.pendOrder[i+1:]...)
			return
		}
	}
}

// OnBroadcast is the gossip.Delivery callback to install on the inner
// broadcaster at its construction. It routes tagged rounds to the
// subscription table — unpacking batch frames in place, the sub-payload
// slices alias the delivered frame, lent to the handlers as it is to
// OnBroadcast — and hands untagged rounds to Config.Fallback.
func (r *Router) OnBroadcast(round uint64, topic uint32, payload []byte, hops int) {
	if topic == 0 {
		if r.cfg.Fallback != nil {
			r.cfg.Fallback(round, topic, payload, hops)
		}
		return
	}
	if topic&batchFlag == 0 {
		r.dispatch(topic, payload, hops)
		return
	}
	topic &^= batchFlag
	rest := payload
	for len(rest) > 0 {
		n, u := binary.Uvarint(rest)
		if u <= 0 || n > uint64(len(rest)-u) {
			// Truncated or over-claiming entry: the frame is broken from
			// here on. Entries already dispatched stand.
			r.stats.Malformed++
			return
		}
		r.dispatch(topic, rest[u:u+int(n)], hops)
		rest = rest[u+int(n):]
	}
}

// dispatch invokes topic's handlers for one delivered message.
func (r *Router) dispatch(topic uint32, payload []byte, hops int) {
	hs := r.subs[topic]
	if len(hs) == 0 {
		r.stats.NoSubscriber++
		return
	}
	for _, h := range hs {
		h(topic, payload, hops)
		r.stats.Delivered++
	}
}

// Stats returns a copy of the router's counters.
func (r *Router) Stats() Stats { return r.stats }

// PendingMessages returns the number of published messages currently held in
// open batch frames (tests, draining checks).
func (r *Router) PendingMessages() int {
	n := 0
	for _, p := range r.pend {
		n += p.count
	}
	return n
}

// --- gossip.Broadcaster by delegation -----------------------------------

// Deliver implements peer.Process. The router's own flush tick triggers a
// flush; every message — including the tick, which descends the stack per
// the msg.Tick convention — is handed to the inner broadcaster.
func (r *Router) Deliver(from id.ID, m *msg.Message) {
	if m.Type == msg.Tick && from == r.self && m.Round == msg.TickPubSubFlush {
		r.Flush()
	}
	r.inner.Deliver(from, m)
}

// OnCycle implements peer.Process by delegation (externally-cycled stacks
// flush per cycle, mirroring the tick-driven mode).
func (r *Router) OnCycle() {
	r.Flush()
	r.inner.OnCycle()
}

// OnPeerDown flushes pending frames — the overlay is changing under the
// batches, and bounding buffered-message loss beats amortizing bytes — then
// forwards the failure to the inner broadcaster.
func (r *Router) OnPeerDown(peerID id.ID) {
	r.Flush()
	r.inner.OnPeerDown(peerID)
}

// Broadcast implements gossip.Broadcaster by delegation (untagged round).
func (r *Router) Broadcast(round uint64, payload []byte) {
	r.inner.Broadcast(round, payload)
}

// BroadcastTopic implements gossip.Broadcaster by delegation.
func (r *Router) BroadcastTopic(round uint64, topic uint32, payload []byte) {
	r.inner.BroadcastTopic(round, topic, payload)
}

// Counters implements gossip.Broadcaster by delegation.
func (r *Router) Counters() (delivered, duplicates, forwarded, sendFails uint64) {
	return r.inner.Counters()
}

// Seen implements gossip.Broadcaster by delegation.
func (r *Router) Seen(round uint64) bool { return r.inner.Seen(round) }

// ResetSeen implements gossip.Broadcaster by delegation.
func (r *Router) ResetSeen() { r.inner.ResetSeen() }

// Membership implements gossip.Broadcaster by delegation.
func (r *Router) Membership() peer.Membership { return r.inner.Membership() }

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
