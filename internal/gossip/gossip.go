// Package gossip implements the broadcast protocol of the paper's
// evaluation (§5): a node forwards a message the first time it receives it,
// with no a-priori bound on the number of gossip rounds.
//
// Two forwarding modes are supported:
//
//   - Flood: forward to every overlay neighbor except the arrival link. This
//     is HyParView's deterministic dissemination over the symmetric active
//     view (§4.1).
//   - Fanout(t): forward to t members chosen at random from the partial
//     view. This is the classic gossip used on top of Cyclon and SCAMP.
//
// Send failures (peer.ErrPeerDown, i.e. a broken TCP connection) are passed
// to the membership protocol via OnPeerDown, which is how HyParView and
// CyclonAcked detect failures during dissemination while plain Cyclon and
// SCAMP ignore them.
package gossip

import (
	"errors"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/roundcache"
)

// DefaultSeenWindow is the default window, in rounds, of the per-node
// delivered-message cache (Config.SeenWindow): a node remembers (and
// deduplicates) the last SeenWindow round identifiers it delivered. The
// cache is roundcache.Set, a ring of those identifiers, so exactly the
// SeenWindow most recently delivered rounds are held whatever their
// identifiers look like (monotonic in the simulator, random 64-bit on the
// TCP agents); a copy arriving more than SeenWindow rounds late would be
// re-delivered, the bounded-memory trade every deployed message-id cache
// makes. Deliveries of one round are always fully drained
// before the harness starts the next, so the window only has to cover the
// rounds genuinely in flight at once; 128 keeps the per-node footprint at
// 1 KiB (the 128-entry ring) — flat for the life of the node — even at
// 100k-node populations.
const DefaultSeenWindow = 128

// Mode selects the forwarding strategy.
type Mode uint8

// Forwarding modes.
const (
	// Flood forwards to all neighbors except the sender (HyParView).
	Flood Mode = iota + 1
	// Fanout forwards to Config.Fanout random view members (Cyclon, SCAMP).
	Fanout
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Flood:
		return "flood"
	case Fanout:
		return "fanout"
	default:
		return "unknown"
	}
}

// Config parameterizes a gossip node.
type Config struct {
	// Mode is the forwarding strategy.
	Mode Mode

	// Fanout is the per-hop fan-out in Fanout mode (paper §5.1: 4).
	Fanout int

	// ReportPeerDown controls whether send failures are reported to the
	// membership protocol's OnPeerDown. True for HyParView (TCP failure
	// detector) and CyclonAcked (acknowledgments); false for plain Cyclon
	// and SCAMP whose gossip is fire-and-forget.
	ReportPeerDown bool

	// SeenWindow is the capacity, in rounds, of the delivered-message
	// dedup cache (see DefaultSeenWindow). Zero takes the default.
	SeenWindow int
}

// Delivery is the callback invoked exactly once per locally delivered
// broadcast. topic is the pub/sub topic tag of the round (0 for untagged
// plain broadcasts; see msg.Message.Topic for the encoding of the batch
// flag).
type Delivery func(round uint64, topic uint32, payload []byte, hops int)

// Broadcaster is the contract every broadcast-layer node satisfies: the
// flood/fanout Node in this package and the tree-based node in
// internal/plumtree. The experiment harness builds clusters against this
// interface so the broadcast protocol is a per-cluster switch, and the shared
// Counters accounting is what feeds the RMR (relative message redundancy)
// metric in internal/metrics.
type Broadcaster interface {
	peer.Process
	peer.FailureObserver

	// Broadcast emits a new message with a round identifier unique per
	// message (provided by the Tracker or an application counter).
	Broadcast(round uint64, payload []byte)

	// BroadcastTopic emits a new message tagged with a pub/sub topic. The
	// tag rides the round end to end (forwarding, caching, GRAFT
	// retransmission) and reaches every Delivery callback unchanged.
	// Broadcast(round, payload) is BroadcastTopic(round, 0, payload).
	BroadcastTopic(round uint64, topic uint32, payload []byte)

	// Counters returns the node's payload accounting: locally delivered
	// messages (first copies, including the node's own broadcasts),
	// redundant payload receptions, successful payload forwards, and sends
	// rejected with peer.ErrPeerDown.
	Counters() (delivered, duplicates, forwarded, sendFails uint64)

	// Seen reports whether the node has delivered round. The underlying
	// state is a fixed-capacity cache over the most recent rounds (see
	// DefaultSeenWindow), so Seen reports false for rounds older than the
	// window.
	Seen(round uint64) bool

	// ResetSeen clears the delivered-message state in place. The caches are
	// fixed-capacity, so this is a semantic reset (start a fresh round
	// epoch), not a memory bound.
	ResetSeen()

	// Membership returns the wrapped membership protocol.
	Membership() peer.Membership
}

// Node wires a membership protocol instance to the broadcast layer. It
// implements peer.Process: broadcast traffic is consumed here, everything
// else is handed to the membership protocol.
type Node struct {
	env        peer.Env
	membership peer.Membership
	cfg        Config
	seen       roundcache.Set
	onDeliver  Delivery

	// sendRef is env's optional by-reference send fast path (peer.RefSender),
	// probed once here; nil means fall back to env.Send. The flood fan-out
	// pushes one frozen message to every neighbor, so skipping the by-value
	// argument copy per link is measurable at scale.
	sendRef func(dst id.ID, m *msg.Message) error

	// fwdScratch stages the outgoing copy of a relayed broadcast. It lives
	// on the node (already heap-allocated) so that taking its address for
	// the by-reference send path cannot make the message escape — a
	// stack-local here would cost one heap allocation per delivered event.
	fwdScratch msg.Message

	// lastRound/hasLast fast-path the dominant dedup case: a redundant copy
	// of the round delivered most recently. Flood redundancy means most
	// receptions are duplicates of the round currently in flight, and this
	// check resolves on the node's own (already loaded) cache line instead
	// of a scan of the seen ring. lastRound is also in the seen cache — this
	// is an accelerator, not a second source of truth.
	lastRound uint64
	hasLast   bool

	// Counters for the evaluation.
	delivered  uint64
	duplicates uint64
	forwarded  uint64
	sendFails  uint64
}

var _ Broadcaster = (*Node)(nil)

// New builds a gossip node over membership. onDeliver may be nil.
func New(env peer.Env, membership peer.Membership, cfg Config, onDeliver Delivery) *Node {
	if cfg.Mode == 0 {
		cfg.Mode = Flood
	}
	if cfg.Mode == Fanout && cfg.Fanout <= 0 {
		cfg.Fanout = 4
	}
	if cfg.SeenWindow <= 0 {
		cfg.SeenWindow = DefaultSeenWindow
	}
	n := &Node{
		env:        env,
		membership: membership,
		cfg:        cfg,
		onDeliver:  onDeliver,
	}
	if rs, ok := env.(peer.RefSender); ok {
		n.sendRef = rs.SendRef
	}
	n.seen.Init(cfg.SeenWindow)
	return n
}

// Membership returns the wrapped membership protocol.
func (n *Node) Membership() peer.Membership { return n.membership }

// Deliver implements peer.Process.
func (n *Node) Deliver(from id.ID, m *msg.Message) {
	if m.Type != msg.Gossip {
		n.membership.Deliver(from, m)
		return
	}
	n.receiveGossip(from, m)
}

// OnCycle implements peer.Process by delegating to the membership protocol.
func (n *Node) OnCycle() { n.membership.OnCycle() }

// Broadcast emits a new message with the given round identifier and payload
// from this node. Round identifiers must be unique per message (the
// experiment harness or an application-level counter provides them).
func (n *Node) Broadcast(round uint64, payload []byte) {
	n.BroadcastTopic(round, 0, payload)
}

// BroadcastTopic emits a new topic-tagged message from this node (see
// Broadcaster). The tag is a per-round scalar: it is copied into every
// forwarded hop for free under the copy-on-write relay.
func (n *Node) BroadcastTopic(round uint64, topic uint32, payload []byte) {
	if n.hasLast && round == n.lastRound {
		return
	}
	if !n.seen.Add(round) {
		return
	}
	n.lastRound, n.hasLast = round, true
	n.delivered++
	if n.onDeliver != nil {
		n.onDeliver(round, topic, payload, 0)
	}
	n.fwdScratch = msg.Message{
		Type:    msg.Gossip,
		Sender:  n.env.Self(),
		Round:   round,
		Hops:    0,
		Topic:   topic,
		Payload: payload,
	}
	n.forward(id.Nil, &n.fwdScratch)
}

// receiveGossip handles one incoming broadcast copy. m is Deliver's pointer to
// the environment's copy — in the simulator the stored body other receivers
// of the same send may share — so it is read-only and not kept past the call;
// the relay copies it into fwdScratch.
func (n *Node) receiveGossip(from id.ID, m *msg.Message) {
	if n.hasLast && m.Round == n.lastRound {
		n.duplicates++
		return
	}
	if !n.seen.Add(m.Round) {
		n.duplicates++
		return
	}
	n.lastRound, n.hasLast = m.Round, true
	n.delivered++
	if n.onDeliver != nil {
		n.onDeliver(m.Round, m.Topic, m.Payload, int(m.Hops)+1)
	}
	// Copy-on-write relay: the struct copy in fwdScratch rewrites the
	// per-hop scalars while sharing the frozen payload slice.
	n.fwdScratch = *m
	n.fwdScratch.Sender = n.env.Self()
	n.fwdScratch.Hops = m.Hops + 1
	n.forward(from, &n.fwdScratch)
}

// forward relays *m to the mode's targets, excluding the arrival link. m
// aliases fwdScratch; sends never retain it.
func (n *Node) forward(from id.ID, m *msg.Message) {
	var targets []id.ID
	switch n.cfg.Mode {
	case Flood:
		targets = n.membership.GossipTargets(0, from)
	case Fanout:
		targets = n.membership.GossipTargets(n.cfg.Fanout, from)
	}
	for _, t := range targets {
		if err := n.send(t, m); err != nil {
			n.sendFails++
			if n.cfg.ReportPeerDown && errors.Is(err, peer.ErrPeerDown) {
				// This is the paper's failure-detection moment: the entire
				// broadcast overlay is implicitly tested at every broadcast
				// (§4.1 item iii). Only a proven-down peer is reported —
				// an overloaded transport (queue overflow) loses the copy
				// without indicting the link.
				n.membership.OnPeerDown(t)
			}
			continue
		}
		n.forwarded++
	}
}

// send dispatches through the by-reference fast path when the environment
// provides one. m is frozen (see package peer): both paths may alias it.
func (n *Node) send(dst id.ID, m *msg.Message) error {
	if n.sendRef != nil {
		return n.sendRef(dst, m)
	}
	return n.env.Send(dst, *m)
}

// Counters returns (delivered, duplicates, forwarded, sendFailures).
func (n *Node) Counters() (delivered, duplicates, forwarded, sendFails uint64) {
	return n.delivered, n.duplicates, n.forwarded, n.sendFails
}

// Seen reports whether the node has delivered round within the seen window.
func (n *Node) Seen(round uint64) bool {
	return n.seen.Contains(round)
}

// ResetSeen clears the delivered-message cache in place; no memory is
// released or allocated (the cache is fixed-capacity).
func (n *Node) ResetSeen() {
	n.hasLast = false
	n.seen.Reset()
}

// OnPeerDown implements peer.FailureObserver: connection-level failure
// notifications from the environment (TCP resets for watched links) are
// forwarded to the membership protocol.
func (n *Node) OnPeerDown(peerID id.ID) {
	n.membership.OnPeerDown(peerID)
}
