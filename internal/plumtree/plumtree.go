// Package plumtree implements the Plumtree epidemic broadcast tree protocol
// (Leitão, Pereira, Rodrigues — "Epidemic Broadcast Trees", SRDS 2007), the
// companion broadcast layer the authors designed to run on top of HyParView.
//
// Instead of pushing every payload on every overlay link (flooding), each
// node splits its overlay neighbors into an eager set and a lazy set:
//
//   - Eager peers receive the payload itself (PLUMTREEGOSSIP). The eager
//     links of all nodes converge to a spanning tree of the overlay: the
//     first copy of a message moves the sending link to eager, a redundant
//     copy is answered with PLUMTREEPRUNE, demoting the link to lazy.
//   - Lazy peers receive only an announcement (PLUMTREEIHAVE) carrying the
//     round identifier and the hop count. Announcements are what keep the
//     protocol reliable: a node that hears about a message it never receives
//     starts a missing-message timer and, on expiry, sends PLUMTREEGRAFT to
//     an announcer, which both repairs the tree (the grafted link becomes
//     eager on both ends) and triggers retransmission of the payload.
//
// Tree optimization (paper §4.4): when an IHAVE announces a path shorter by
// Config.OptimizeThreshold hops than the eager path a message actually
// arrived on, the node grafts the announcer and prunes its current parent,
// so the tree keeps approximating a BFS tree as the overlay changes.
//
// Timers: the missing-message timer is a real scheduled event on the
// environment's peer.Scheduler — After(Config.TimerDelay) arms a
// self-addressed PLUMTREEIHAVE that fires once, behind all traffic already
// in flight. In the simulator's FIFO mode (delay-0 messages) that is exactly
// the "wait long enough for the eager path to win" semantics the paper's
// timer provides, and tree repair still runs to completion inside a single
// Drain, deterministic under a fixed seed; under a latency model or the real
// TCP clock the delay is a genuine timeout in ticks.
//
// Lazy queue (the paper's lazy-push policy): announcements are not sent as
// they are made. push queues (peer, round, hops) on the node, and the first
// entry of an empty queue arms one msg.TickPlumtreeFlush tick,
// max(TimerDelay/4, 1) ticks out; a queue that reaches maxQueued entries
// flushes at once. A flush sends one IHAVE per peer still in the eager or
// lazy set, peers in ID order and each peer's entries in queue order: a
// single entry is a plain IHAVE (Round, Hops), several are packed into the
// payload as ihaveEntry-byte (round, hops) pairs. A receiver whose eager copy
// was lost therefore grafts at most TimerDelay/4 later than it would with
// immediate announcements. announceLast, the one-off announcement to a new
// link, is not queued.
//
// Queued announcements reach a receiver after the payload they announce, so
// every shorter announced path would qualify for the §4.4 swap, and with
// several sources the tree would flip back and forth. A swap therefore
// needs the same announcer to qualify optimizeStreak times in a row; a
// non-qualifying announcement from it starts the count again.
//
// The node implements gossip.Broadcaster over any peer.Membership, so the
// experiment harness can swap flood gossip for Plumtree with a cluster
// option and compare reliability and relative message redundancy (RMR).
package plumtree

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"

	"hyparview/internal/gossip"
	"hyparview/internal/id"
	"hyparview/internal/idset"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/roundcache"
)

// DefaultCacheWindow is the capacity, in rounds, of the per-node
// delivered-round cache. Like the gossip layer's seen cache it is a
// fixed-capacity ring over the most recent round identifiers. A round evicted
// by one more than DefaultCacheWindow rounds newer loses its duplicate
// detection, so the window must cover the rounds for which repair can still
// be pending — in practice the rounds of one burst.
const DefaultCacheWindow = 512

// retainBudget bounds, in bytes, the payloads a node keeps to answer GRAFT
// repair requests (see payloadRing). A round's retransmission horizon is
// therefore min(DefaultCacheWindow rounds, retainBudget ÷ payload byte rate):
// payloads of up to 4 KiB keep the whole dedup window, larger ones age out
// sooner, and the horizon only has to outlast the lazy queue's flush delay
// plus the missing-message timer (Config.TimerDelay) times the announcers a
// graft may fall through.
const retainBudget = 2 << 20

// maxQueued bounds the lazy queue: the announcement that fills it flushes
// the queue at once. It also bounds the entries of one batch IHAVE; a longer
// batch is dropped whole by its receiver.
const maxQueued = 64

// ihaveEntry is the wire size of one announcement in a batch IHAVE's
// payload: round (big-endian uint64), then hops (big-endian uint16).
const ihaveEntry = 10

// optimizeStreak is how many announcements in a row from one announcer must
// promise a shorter path before the §4.4 swap grafts it.
const optimizeStreak = 3

// Config parameterizes a Plumtree node. Zero fields take defaults.
type Config struct {
	// TimerDelay is the missing-message timeout in scheduler ticks: how long
	// a node that heard an IHAVE announcement waits for the eager copy
	// before grafting the announcer (peer.Scheduler.After). A quarter of it
	// (at least one tick) is the lazy queue's flush delay. A zero-delay
	// timer still fires behind all traffic in flight at arming time, so in
	// the simulator's FIFO mode any value repairs within one Drain; under a
	// latency model the delay must exceed the eager-path/lazy-shortcut
	// delivery gap or the node grafts spuriously, keeping the tree in
	// permanent churn (the extra grafts cost redundancy, never reliability).
	// The TCP agent maps AgentConfig.PlumtreeTimer onto this field (one tick
	// = 1ms). Default 1000.
	TimerDelay uint64

	// OptimizeThreshold is the minimum hop-count improvement an IHAVE
	// announcement must promise over the current eager path before the node
	// swaps the links (GRAFT the announcer, PRUNE the parent). Default 3.
	OptimizeThreshold int

	// ReportPeerDown controls whether send failures are reported to the
	// membership protocol's OnPeerDown. True when running over HyParView,
	// whose broadcast doubles as its failure detector.
	ReportPeerDown bool
}

// WithDefaults fills unset fields with the defaults above.
func (c Config) WithDefaults() Config {
	if c.TimerDelay == 0 {
		c.TimerDelay = 1000
	}
	if c.OptimizeThreshold == 0 {
		c.OptimizeThreshold = 3
	}
	return c
}

// cached is the per-delivered-round state: hops and parent feed the
// optimization rule, slot says where the payload is kept for GRAFT
// retransmissions. It holds no pointer, so a seen-cache slot — occupied,
// evicted or parked by a backward shift — pins no payload.
type cached struct {
	slot   uint16 // payloadRing slot holding the payload (noSlot: delivered empty)
	hops   uint16 // hop count at which this node delivered
	topic  uint32 // pub/sub topic tag, preserved across GRAFT retransmission
	parent id.ID  // eager peer the first copy arrived from (Nil if local)
}

// noSlot is the cached.slot of a round delivered with an empty payload:
// nothing to retain, and a GRAFT for it is answered with the empty payload.
const noSlot = ^uint16(0)

// ringEntry is one payloadRing slot. A nil payload marks the slot dropped.
type ringEntry struct {
	round   uint64
	payload []byte
}

// payloadRing is the one place a node holds delivered payloads, kept only to
// answer GRAFTs: a FIFO of the most recent non-empty payloads, at most
// DefaultCacheWindow of them and at most retainBudget bytes in total, except
// that the newest payload is always kept.
//
// Where the environment declares frozen bodies (peer.FrozenBodies: the
// simulator) an entry aliases the delivered slice, so retaining copies
// nothing, but it pins that buffer until the entry is dropped, which is why
// the ring is bounded in bytes, not only in rounds. Everywhere else the
// delivered slice is only lent (the TCP transport decodes payloads in its
// read buffer), and the ring copies each payload into an arena of its own,
// retainBudget bytes allocated at the first put and reused from then on:
// one copy and no allocation per delivery. The arena is filled circularly
// from its write offset, and a put drops the oldest entries until the bytes
// from that offset to the end of its copy are free. A copy that does not fit
// before the arena's end goes to offset 0, and the bytes it skips (the wrap
// gap, under one payload) are claimed with it: the entries there go first,
// as they are the oldest. The arena's horizon is thus the budget less at
// most one payload. A payload larger than the budget is kept alone, in a
// buffer of its own, until the next put.
type payloadRing struct {
	slots [DefaultCacheWindow]ringEntry
	head  int // next slot to write; the n slots before it are live
	n     int
	bytes int // summed len(payload) of the live slots

	alias bool   // the environment's bodies are frozen: keep the caller's slice
	arena []byte // the copies, when not aliasing; nil until the first put
	write int    // arena offset the next copy goes to, when it fits
}

// put retains payload for round, dropping the oldest entries until it fits,
// and returns the slot to remember in the round's cached entry.
func (r *payloadRing) put(round uint64, payload []byte) uint16 {
	size := len(payload)
	if size == 0 {
		return noSlot
	}
	at := r.write
	if at+size > retainBudget {
		at = 0
	}
	claim := at + size - r.write // arena bytes from write to the copy's end
	if at < r.write {
		claim += retainBudget
	}
	for r.n > 0 {
		oldest := &r.slots[(r.head-r.n+len(r.slots))%len(r.slots)]
		if r.n < len(r.slots) && r.bytes+size <= retainBudget && !r.claimed(oldest, claim) {
			break
		}
		r.bytes -= len(oldest.payload)
		oldest.payload = nil
		r.n--
	}
	kept := payload
	switch {
	case r.alias:
	case size > retainBudget:
		kept = append([]byte(nil), payload...)
	default:
		if r.arena == nil {
			r.arena = make([]byte, retainBudget)
		}
		kept = r.arena[at : at+size]
		copy(kept, payload)
		r.write = at + size
	}
	slot := r.head
	r.slots[slot] = ringEntry{round: round, payload: kept}
	r.head = (slot + 1) % len(r.slots)
	r.n++
	r.bytes += size
	return uint16(slot)
}

// claimed reports whether e, the oldest live entry, starts within the claim
// arena bytes from the write offset, circularly. Arena entries lie in FIFO
// order from there, so when the oldest starts past the claim, all do. An
// arena entry's capacity runs to the arena's end, which is how its offset
// is recovered. Aliased and oversize entries lie outside the arena; the
// byte bound drops an oversize one first.
func (r *payloadRing) claimed(e *ringEntry, claim int) bool {
	if r.arena == nil {
		return false
	}
	dist := retainBudget - cap(e.payload) - r.write
	if dist < 0 {
		dist += retainBudget
	}
	return dist < claim
}

// get returns the payload put for round at slot. ok is false when it has
// been dropped since (the slot emptied, or recycled for a later round).
func (r *payloadRing) get(round uint64, slot uint16) (payload []byte, ok bool) {
	if slot == noSlot {
		return nil, true
	}
	e := &r.slots[slot]
	if e.round != round || e.payload == nil {
		return nil, false
	}
	return e.payload[:len(e.payload):len(e.payload)], true
}

// reset drops every retained payload; the arena is kept for reuse.
func (r *payloadRing) reset() {
	r.slots = [DefaultCacheWindow]ringEntry{}
	r.head, r.n, r.bytes, r.write = 0, 0, 0, 0
}

// source is one IHAVE announcer of a round this node has not delivered.
type source struct {
	peer id.ID
	hops uint16
}

// missing tracks a round known only through announcements. Entries live in a
// fixed-capacity round cache and hold their announcers in a fixed inline
// array, so the repair bookkeeping allocates nothing however many rounds
// churn through it. maxSources bounds the graft fall-back chain; announcers
// beyond it are dropped, which costs at most repair attempts (a later IHAVE
// re-announces), never correctness.
type missing struct {
	sources [maxSources]source // announcers in arrival order; grafts try them in turn
	nsrc    uint8              // live prefix of sources
	timer   bool               // a timer message is in flight for this round
}

// maxSources is the per-round announcer bound: lazy degree rarely exceeds
// the active-view size (5 in the paper's configurations).
const maxSources = 8

// announcement is one lazy-queue entry: an IHAVE for round, at hops, owed
// to peer.
type announcement struct {
	peer  id.ID
	round uint64
	hops  uint16
}

// ControlStats counts Plumtree's control-plane activity.
type ControlStats struct {
	IHavesSent  uint64 // announcements sent (a batch IHAVE counts each entry)
	GraftsSent  uint64 // repair grafts (retransmission requests)
	PrunesSent  uint64 // duplicate-triggered demotions
	TimerFires  uint64 // missing-message timers that expired into a graft
	Optimizes   uint64 // eager/lazy swaps triggered by shorter announced paths
	GraftsRecvd uint64 // grafts answered (payload retransmitted if retained)

	// GraftsUnserved counts the grafts among GraftsRecvd that asked for a
	// retransmission this node could not give: the payload had aged out of
	// the retention ring (or the round out of the seen window). The requester
	// recovers through its next announcer; a count that grows in steady state
	// means the retransmission horizon is shorter than the repair it serves.
	GraftsUnserved uint64
}

// Node is a Plumtree broadcast node over a membership protocol. It
// implements gossip.Broadcaster (and therefore peer.Process).
type Node struct {
	env        peer.Env
	membership peer.Membership
	cfg        Config
	onDeliver  gossip.Delivery

	// versioned gates reconcile: when the membership exposes a neighborhood
	// change counter (peer.NeighborVersioned), the per-delivery resync
	// collapses to one integer compare until the overlay actually changes.
	versioned peer.NeighborVersioned
	lastVer   uint64
	synced    bool

	// sendRef is env's optional by-reference send fast path (peer.RefSender);
	// nil means fall back to env.Send.
	sendRef func(dst id.ID, m *msg.Message) error

	// msgScratch stages outgoing messages on the (heap-allocated) node so
	// the by-reference send path never makes a stack-local message escape —
	// that would cost one allocation per send.
	msgScratch msg.Message

	// lastRound/hasLast fast-path duplicate detection for the round
	// delivered most recently (see the equivalent fields on gossip.Node):
	// the redundant eager pushes that drive PRUNE demotions resolve without
	// touching the seen cache.
	lastRound uint64
	hasLast   bool

	eager idset.Set
	lazy  idset.Set
	seen  roundcache.Cache[cached]
	miss  roundcache.Cache[missing]
	ring  payloadRing // payloads of the rounds in seen, for GRAFT service

	// queue holds the announcements not yet flushed (see enqueue).
	queue []announcement

	// streakPeer qualified for the §4.4 swap on its last streak
	// announcements in a row.
	streakPeer id.ID
	streak     int

	// Reused scratch buffers for the allocation-free hot paths; their
	// contents are dead between calls (see the ownership rules on package
	// peer: messages are sent with frozen slices, never aliasing these).
	peerScratch  []id.ID
	nbrScratch   []id.ID
	roundScratch []uint64

	// Payload accounting shared with the flood layer (gossip.Broadcaster).
	delivered  uint64
	duplicates uint64
	forwarded  uint64
	sendFails  uint64

	control ControlStats
}

var _ gossip.Broadcaster = (*Node)(nil)

// New builds a Plumtree node over membership. onDeliver may be nil.
func New(env peer.Env, membership peer.Membership, cfg Config, onDeliver gossip.Delivery) *Node {
	cfg = cfg.WithDefaults()
	versioned, _ := membership.(peer.NeighborVersioned)
	n := &Node{
		env:        env,
		membership: membership,
		cfg:        cfg,
		onDeliver:  onDeliver,
		versioned:  versioned,
	}
	if rs, ok := env.(peer.RefSender); ok {
		n.sendRef = rs.SendRef
	}
	_, n.ring.alias = env.(peer.FrozenBodies)
	n.seen.Init(DefaultCacheWindow)
	n.miss.Init(DefaultCacheWindow)
	return n
}

// Membership returns the wrapped membership protocol.
func (n *Node) Membership() peer.Membership { return n.membership }

// Config returns the node's effective configuration (defaults applied).
func (n *Node) Config() Config { return n.cfg }

// Deliver implements peer.Process. Plumtree traffic is consumed here,
// everything else is handed to the membership protocol. A PLUMTREEIHAVE
// from the node itself is a missing-message timer firing (see package doc);
// the node's own TickPlumtreeFlush flushes the lazy queue; any other
// scheduler Tick from the node itself carries a lower layer's periodic
// round through this one, so the cyclic housekeeping rides along before the
// tick descends.
func (n *Node) Deliver(from id.ID, m *msg.Message) {
	switch m.Type {
	case msg.PlumtreeGossip:
		n.onGossip(from, m)
	case msg.PlumtreeIHave:
		if from == n.env.Self() {
			n.onTimer(m)
		} else {
			n.onIHave(from, m)
		}
	case msg.PlumtreeGraft:
		n.onGraft(from, m)
	case msg.PlumtreePrune:
		n.onPrune(from)
	case msg.Tick:
		if from == n.env.Self() {
			if m.Round == msg.TickPlumtreeFlush {
				n.flush()
				return
			}
			n.periodic()
		}
		n.membership.Deliver(from, m)
	default:
		n.membership.Deliver(from, m)
	}
}

// OnCycle runs the membership cycle and the periodic housekeeping
// (externally-driven cycle mode; scheduler-driven stacks get the same
// housekeeping from the Tick pass-through in Deliver).
func (n *Node) OnCycle() {
	n.membership.OnCycle()
	n.periodic()
}

// periodic reconciles the peer sets against the possibly-changed overlay
// neighborhood and re-arms repair timers for rounds still known only through
// announcements.
func (n *Node) periodic() {
	n.reconcile()
	// Sorted iteration keeps the event trace deterministic under a seed.
	rounds := n.roundScratch[:0]
	n.miss.ForEach(func(round uint64, _ *missing) {
		rounds = append(rounds, round)
	})
	slices.Sort(rounds)
	n.roundScratch = rounds
	for _, round := range rounds {
		ms := n.miss.Get(round)
		if ms == nil || ms.timer {
			continue
		}
		if ms.nsrc == 0 {
			// Every announcer was tried and failed; forget the round until
			// someone announces it again.
			n.miss.Remove(round)
			continue
		}
		n.startTimer(round, 0) // graft behind everything already in flight
	}
}

// Broadcast emits a new message from this node: payload to eager peers,
// announcement to lazy peers.
func (n *Node) Broadcast(round uint64, payload []byte) {
	n.BroadcastTopic(round, 0, payload)
}

// BroadcastTopic emits a new topic-tagged message from this node (see
// gossip.Broadcaster). The tag is cached with the round so GRAFT
// retransmissions reproduce it.
func (n *Node) BroadcastTopic(round uint64, topic uint32, payload []byte) {
	if n.seen.Get(round) != nil {
		return
	}
	n.reconcile()
	c, _ := n.seen.Put(round)
	*c = cached{slot: n.ring.put(round, payload), topic: topic, hops: 0, parent: id.Nil}
	n.lastRound, n.hasLast = round, true
	n.delivered++
	if n.onDeliver != nil {
		n.onDeliver(round, topic, payload, 0)
	}
	n.push(round, topic, payload, 0, id.Nil)
}

// onGossip handles an eager payload push.
func (n *Node) onGossip(from id.ID, m *msg.Message) {
	n.reconcile()
	if (n.hasLast && m.Round == n.lastRound) || n.seen.Get(m.Round) != nil {
		// Redundant copy: this link is not part of the tree. Demote it and
		// tell the sender to stop eager-pushing to us (paper §4.2).
		n.duplicates++
		n.demote(from)
		if n.sendTo(from, msg.Message{Type: msg.PlumtreePrune, Sender: n.env.Self()}) {
			n.control.PrunesSent++
		}
		return
	}
	hops := m.Hops + 1
	c, _ := n.seen.Put(m.Round)
	*c = cached{slot: n.ring.put(m.Round, m.Payload), topic: m.Topic, hops: hops, parent: from}
	n.lastRound, n.hasLast = m.Round, true
	n.delivered++
	n.miss.Remove(m.Round) // any in-flight timer finds the round delivered
	if n.onDeliver != nil {
		n.onDeliver(m.Round, m.Topic, m.Payload, int(hops))
	}
	n.promote(from) // the link that delivered first is a tree edge
	n.push(m.Round, m.Topic, m.Payload, hops, from)
}

// onIHave handles a lazy announcement frame from a peer: one announcement in
// Round and Hops, or a batch of them in the payload. A malformed batch is
// dropped before any of its entries is applied.
func (n *Node) onIHave(from id.ID, m *msg.Message) {
	batch := m.Payload
	if len(batch) == 0 {
		n.reconcile()
		n.announced(from, m.Round, m.Hops)
		return
	}
	if len(batch)%ihaveEntry != 0 || len(batch) > maxQueued*ihaveEntry {
		return
	}
	n.reconcile()
	for ; len(batch) > 0; batch = batch[ihaveEntry:] {
		n.announced(from, binary.BigEndian.Uint64(batch), binary.BigEndian.Uint16(batch[8:]))
	}
}

// announced handles one announcement: a delivered round is checked for the
// §4.4 swap, a missing one records the announcer and arms the timer.
func (n *Node) announced(from id.ID, round uint64, hops uint16) {
	if c := n.seen.Get(round); c != nil {
		n.maybeOptimize(from, hops, c)
		return
	}
	ms, existed := n.miss.Put(round)
	if !existed {
		// Fresh (or recycled) entry: reset the live fields.
		ms.nsrc = 0
		ms.timer = false
	}
	if int(ms.nsrc) < len(ms.sources) {
		ms.sources[ms.nsrc] = source{peer: from, hops: hops}
		ms.nsrc++
	}
	if !ms.timer {
		n.startTimer(round, n.cfg.TimerDelay)
	}
}

// maybeOptimize applies the paper's §4.4 tree optimization: if the announced
// path would have delivered the message at least OptimizeThreshold hops
// earlier than the eager path did, and from has qualified optimizeStreak
// times in a row, swap the links.
func (n *Node) maybeOptimize(from id.ID, announcedHops uint16, c *cached) {
	if n.eager.Contains(from) || int(announcedHops)+1+n.cfg.OptimizeThreshold > int(c.hops) {
		if from == n.streakPeer {
			n.streak = 0
		}
		return
	}
	if from != n.streakPeer {
		n.streakPeer, n.streak = from, 0
	}
	if n.streak++; n.streak < optimizeStreak {
		return
	}
	n.streak = 0
	// c points into the seen cache; copy the parent out before sending (a
	// send cannot evict cache entries today, but the pointer's validity
	// window is documented as "until the next insert").
	parent := c.parent
	n.promote(from)
	// Accept=false: graft the link without requesting a retransmission.
	if n.sendTo(from, msg.Message{Type: msg.PlumtreeGraft, Sender: n.env.Self(), Accept: false}) {
		n.control.Optimizes++
	}
	if !parent.IsNil() && parent != from {
		if n.eager.Contains(parent) {
			n.demote(parent)
			if n.sendTo(parent, msg.Message{Type: msg.PlumtreePrune, Sender: n.env.Self()}) {
				n.control.PrunesSent++
			}
		}
	}
}

// onGraft handles a repair request: the requesting link becomes eager again
// and, when a retransmission is requested (Accept) and the payload is still
// retained, the payload is resent. A payload that has aged out is never
// answered with an empty frame — the requester would deliver that as the
// message; it gets nothing and its timer falls through to the next announcer.
func (n *Node) onGraft(from id.ID, m *msg.Message) {
	n.reconcile()
	n.promote(from)
	n.control.GraftsRecvd++
	if !m.Accept {
		return
	}
	c, payload, ok := n.retained(m.Round)
	if !ok {
		n.control.GraftsUnserved++
		return
	}
	if n.sendTo(from, msg.Message{
		Type:    msg.PlumtreeGossip,
		Sender:  n.env.Self(),
		Round:   m.Round,
		Hops:    c.hops,
		Topic:   c.topic,
		Payload: payload,
	}) {
		n.forwarded++
	}
	// The staging slot must not pin the payload past its drop from the ring.
	n.msgScratch.Payload = nil
}

// retained returns round's delivery state and payload when a GRAFT for it
// can still be served: the round is in the seen window and its payload has
// not been dropped from the retention ring.
func (n *Node) retained(round uint64) (c *cached, payload []byte, ok bool) {
	if c = n.seen.Get(round); c == nil {
		return nil, nil, false
	}
	payload, ok = n.ring.get(round, c.slot)
	return c, payload, ok
}

// onPrune demotes the link to the pruning peer to lazy.
func (n *Node) onPrune(from id.ID) {
	n.reconcile()
	n.demote(from)
}

// onTimer handles a missing-message timer firing (a scheduler-delivered
// self-addressed IHAVE).
func (n *Node) onTimer(m *msg.Message) {
	ms := n.miss.Get(m.Round)
	if ms == nil {
		return // delivered (or forgotten) while the timer was in flight
	}
	n.timerExpired(m.Round, ms)
}

// timerExpired grafts the first reachable announcer of round. If announcers
// remain afterwards the timer is re-armed, so a graft to a peer that fails
// before answering falls through to the next announcer.
func (n *Node) timerExpired(round uint64, ms *missing) {
	ms.timer = false
	consumed := 0
	for consumed < int(ms.nsrc) {
		s := ms.sources[consumed]
		consumed++
		n.promote(s.peer)
		if n.sendTo(s.peer, msg.Message{
			Type:   msg.PlumtreeGraft,
			Sender: n.env.Self(),
			Round:  round,
			Accept: true,
		}) {
			n.control.GraftsSent++
			n.control.TimerFires++
			break
		}
	}
	// Shift the unconsumed announcers down in place.
	ms.nsrc = uint8(copy(ms.sources[:], ms.sources[consumed:ms.nsrc]))
	if ms.nsrc > 0 {
		n.startTimer(round, n.cfg.TimerDelay)
	}
	// Otherwise the entry stays with no timer armed: a future IHAVE re-arms
	// it, or the periodic housekeeping garbage-collects it.
}

// startTimer schedules the missing-message timer for round: a self-addressed
// IHAVE delivered by the environment's scheduler after delay ticks, behind
// everything already in flight.
func (n *Node) startTimer(round uint64, delay uint64) {
	ms := n.miss.Get(round)
	if ms == nil {
		return
	}
	ms.timer = true
	n.env.After(delay, msg.Message{
		Type:   msg.PlumtreeIHave,
		Sender: n.env.Self(),
		Round:  round,
	})
}

// push sends the payload to every eager peer and queues the announcement for
// every lazy peer, excluding the link the message arrived on. The peer sets
// are iterated through a reused scratch snapshot (a failed send removes the
// peer from the live set mid-loop), in ascending ID order so the simulator's
// event trace stays deterministic; the payload slice is shared by every
// outgoing copy (copy-on-write fan-out, see package peer).
func (n *Node) push(round uint64, topic uint32, payload []byte, hops uint16, skip id.ID) {
	self := n.env.Self()
	n.msgScratch = msg.Message{
		Type:    msg.PlumtreeGossip,
		Sender:  self,
		Round:   round,
		Hops:    hops,
		Topic:   topic,
		Payload: payload,
	}
	n.peerScratch = n.eager.AppendTo(n.peerScratch[:0], skip)
	for _, p := range n.peerScratch {
		if n.sendRefTo(p, &n.msgScratch) {
			n.forwarded++
		}
	}
	n.msgScratch.Payload = nil // as in onGraft: do not pin the payload
	n.peerScratch = n.lazy.AppendTo(n.peerScratch[:0], skip)
	for _, p := range n.peerScratch {
		n.enqueue(announcement{peer: p, round: round, hops: hops})
	}
}

// enqueue adds a to the lazy queue. The first entry of an empty queue arms
// a flush tick, and the entry that fills the queue flushes it; a tick still
// in flight from before such a flush (or a ResetSeen) flushes its successor
// early.
func (n *Node) enqueue(a announcement) {
	if len(n.queue) == 0 {
		n.env.After(max(n.cfg.TimerDelay/4, 1), msg.Message{
			Type:   msg.Tick,
			Sender: n.env.Self(),
			Round:  msg.TickPlumtreeFlush,
		})
	}
	n.queue = append(n.queue, a)
	if len(n.queue) >= maxQueued {
		n.flush()
	}
}

// flush empties the lazy queue: one IHAVE per peer that is still eager or
// lazy, in ascending peer order, its entries in queue order. A peer that
// left both sets gets nothing, so a flush never dials a non-neighbor.
func (n *Node) flush() {
	if len(n.queue) == 0 {
		return
	}
	n.reconcile()
	q := n.queue
	slices.SortStableFunc(q, func(a, b announcement) int { return cmp.Compare(a.peer, b.peer) })
	for len(q) > 0 {
		k := 1
		for k < len(q) && q[k].peer == q[0].peer {
			k++
		}
		if p := q[0].peer; n.eager.Contains(p) || n.lazy.Contains(p) {
			n.sendIHave(p, q[:k])
		}
		q = q[k:]
	}
	n.queue = n.queue[:0]
}

// sendIHave sends entries to p in one IHAVE: a single entry in Round and
// Hops, several packed into a fresh (frozen once sent) payload.
func (n *Node) sendIHave(p id.ID, entries []announcement) {
	n.msgScratch = msg.Message{Type: msg.PlumtreeIHave, Sender: n.env.Self()}
	if len(entries) == 1 {
		n.msgScratch.Round, n.msgScratch.Hops = entries[0].round, entries[0].hops
	} else {
		batch := make([]byte, 0, len(entries)*ihaveEntry)
		for _, e := range entries {
			batch = binary.BigEndian.AppendUint64(batch, e.round)
			batch = binary.BigEndian.AppendUint16(batch, e.hops)
		}
		n.msgScratch.Payload = batch
	}
	if n.sendRefTo(p, &n.msgScratch) {
		n.control.IHavesSent += uint64(len(entries))
	}
}

// sendTo sends m to dst, handling the failure-detection path: a send
// rejected with peer.ErrPeerDown removes dst from both peer sets and, when
// configured, is reported to the membership protocol. Other send errors
// (queue-overflow degradation) lose the message without indicting the link.
func (n *Node) sendTo(dst id.ID, m msg.Message) bool {
	n.msgScratch = m
	return n.sendRefTo(dst, &n.msgScratch)
}

// sendRefTo is sendTo through the environment's by-reference fast path when
// one is available (peer.RefSender); *m is frozen under either path.
func (n *Node) sendRefTo(dst id.ID, m *msg.Message) bool {
	var err error
	if n.sendRef != nil {
		err = n.sendRef(dst, m)
	} else {
		err = n.env.Send(dst, *m)
	}
	if err != nil {
		n.sendFails++
		if errors.Is(err, peer.ErrPeerDown) {
			n.eager.Remove(dst)
			n.lazy.Remove(dst)
			if n.cfg.ReportPeerDown {
				n.membership.OnPeerDown(dst)
			}
		}
		return false
	}
	return true
}

// reconcile synchronizes the eager/lazy partition with the membership
// protocol's current neighborhood: new overlay neighbors start eager (their
// first redundant push gets pruned), departed neighbors are dropped. This
// keeps Plumtree correct over any peer.Membership without requiring
// neighbor-change callbacks. When the membership exposes a neighborhood
// version (peer.NeighborVersioned), the resync is skipped entirely while the
// version is unchanged — the steady-state delivery path pays one integer
// compare instead of a set diff.
func (n *Node) reconcile() {
	if n.versioned != nil {
		v := n.versioned.NeighborVersion()
		if n.synced && v == n.lastVer {
			return
		}
		n.lastVer = v
		n.synced = true
	}
	self := n.env.Self()
	n.nbrScratch = append(n.nbrScratch[:0], n.membership.Neighbors()...)
	slices.Sort(n.nbrScratch)
	n.eager.RetainSorted(n.nbrScratch)
	n.lazy.RetainSorted(n.nbrScratch)
	for _, p := range n.nbrScratch {
		if p == self || n.eager.Contains(p) || n.lazy.Contains(p) {
			continue
		}
		n.eager.Add(p)
		n.announceLast(p)
	}
}

// announceLast sends an IHAVE for the most recently delivered round to a
// newly formed overlay link. Announcements are otherwise sent exactly once,
// at delivery time, over the links that existed then — so a node that gained
// this link while the round was in flight (view repair during a partition, a
// freshly admitted replacement) would never learn of it and could stay
// permanently deprived even though its new neighbor holds the payload: the
// fault class the adversarial partition-heal-mid-broadcast scenario pins.
// One bounded control message per new link re-opens the missing-round
// timer/graft recovery path.
func (n *Node) announceLast(p id.ID) {
	if !n.hasLast {
		return
	}
	c, _, ok := n.retained(n.lastRound)
	if !ok {
		// Payload no longer retained: a graft for it could not be served, so
		// don't advertise it.
		return
	}
	n.msgScratch = msg.Message{
		Type:   msg.PlumtreeIHave,
		Sender: n.env.Self(),
		Round:  n.lastRound,
		Hops:   c.hops,
	}
	if n.sendRefTo(p, &n.msgScratch) {
		n.control.IHavesSent++
	}
}

// promote moves p to the eager set.
func (n *Node) promote(p id.ID) {
	if p.IsNil() || p == n.env.Self() {
		return
	}
	wasLazy := n.lazy.Remove(p)
	if n.eager.Add(p) && !wasLazy {
		// p was tracked in neither set: either a brand-new neighbor (the
		// next resync retains it) or a non-neighbor whose in-flight traffic
		// raced its removal. The membership version cannot see this local
		// insertion, so force the next reconcile to resync — otherwise the
		// version gate would keep a phantom eager edge to a non-neighbor
		// alive until some unrelated neighborhood change.
		n.synced = false
	}
}

// demote moves p to the lazy set.
func (n *Node) demote(p id.ID) {
	if p.IsNil() {
		return
	}
	if n.eager.Remove(p) {
		n.lazy.Add(p)
	}
}

// EagerPeers returns the current eager set, sorted (tests, metrics).
func (n *Node) EagerPeers() []id.ID { return n.eager.Members() }

// LazyPeers returns the current lazy set, sorted (tests, metrics).
func (n *Node) LazyPeers() []id.ID { return n.lazy.Members() }

// Counters implements gossip.Broadcaster: payload accounting compatible
// with the flood layer's, feeding the shared RMR computation.
func (n *Node) Counters() (delivered, duplicates, forwarded, sendFails uint64) {
	return n.delivered, n.duplicates, n.forwarded, n.sendFails
}

// Control returns the control-plane counters.
func (n *Node) Control() ControlStats { return n.control }

// Seen reports whether the node has delivered round within the cache window.
func (n *Node) Seen(round uint64) bool {
	return n.seen.Get(round) != nil
}

// ResetSeen clears the delivered-round cache, the missing-round state, the
// retained payloads and the lazy queue in place; the fixed-capacity caches
// keep (and recycle) their memory.
func (n *Node) ResetSeen() {
	n.hasLast = false
	n.queue = n.queue[:0]
	n.seen.Reset()
	n.miss.Reset()
	n.ring.reset()
}

// OnPeerDown implements peer.FailureObserver: a connection-level failure
// removes the peer from both sets and is forwarded to the membership
// protocol (which for HyParView triggers reactive view repair).
func (n *Node) OnPeerDown(peerID id.ID) {
	n.eager.Remove(peerID)
	n.lazy.Remove(peerID)
	n.membership.OnPeerDown(peerID)
}
