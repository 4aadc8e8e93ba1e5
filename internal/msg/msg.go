// Package msg defines the wire messages exchanged by the membership and
// broadcast protocols, together with a compact binary codec.
//
// The message set is the union of what HyParView (paper §4, Algorithm 1),
// Cyclon, Scamp and the gossip broadcast layer need. A single shared message
// type keeps the simulator and the real TCP transport protocol-agnostic.
package msg

import (
	"fmt"

	"hyparview/internal/id"
)

// Type discriminates the protocol messages.
type Type uint8

// Message types. The numbering is part of the wire format; append only.
const (
	// HyParView membership (paper §4.2–§4.4).
	Join Type = iota + 1
	ForwardJoin
	Disconnect
	Neighbor
	NeighborReply
	Shuffle
	ShuffleReply

	// Gossip broadcast layer (paper §2.5, §5).
	Gossip
	GossipAck

	// Cyclon membership.
	CyclonShuffle
	CyclonShuffleReply
	CyclonJoinWalk

	// Scamp membership.
	ScampSubscribe
	ScampForwardSub
	ScampKept
	ScampUnsubscribe
	ScampHeartbeat

	// Plumtree broadcast layer (Leitão, Pereira, Rodrigues — "Epidemic
	// Broadcast Trees", SRDS 2007): eager payload push, lazy announcement,
	// and the two tree-repair control messages.
	PlumtreeGossip
	PlumtreeIHave
	PlumtreeGraft
	PlumtreePrune

	// X-BOT overlay optimization (Leitão, Marques, Pereira, Rodrigues —
	// "X-BOT: A Protocol for Resilient Optimization of Unstructured
	// Overlays", SRDS 2009): the 4-node coordinated swap handshake that
	// rewires HyParView's active views toward low-cost links. The initiator
	// asks a candidate to take the place of an expensive neighbor
	// (OPTIMIZATION); a full candidate delegates to the neighbor it would
	// evict (REPLACE), which negotiates with the initiator's old neighbor
	// (SWITCH); DISCONNECTWAIT closes a link without signalling failure.
	XBotOptimization
	XBotOptimizationReply
	XBotReplace
	XBotReplaceReply
	XBotSwitch
	XBotSwitchReply
	XBotDisconnectWait

	// RTT measurement for deployments. A PING carries a nonce in Round; the
	// receiver echoes it back in a PONG. The TCP agent's cost oracle times
	// the exchange and feeds an EWMA per peer, giving X-BOT the live RTT
	// estimates that the simulator gets from its latency model.
	Ping
	Pong

	// Tick is a scheduler-delivered local timer message (peer.Scheduler).
	// Environments deliver it to the local process with sender == self; it
	// never crosses the wire. Each protocol layer recognizes its own ticks
	// by the kind carried in Round (see the Tick* constants) and passes
	// every other kind down the stack, so one registration drives periodic
	// behavior at exactly one layer.
	Tick

	maxType
)

// Tick kinds, carried in Message.Round. The registry is shared across the
// protocol stack so that one layer's timer is never mistaken for another's as
// a tick descends from the broadcast layer to the membership core.
const (
	// TickShuffle drives one HyParView periodic round: shuffle plus active
	// view repair (internal/core, paper §4.2/§4.4).
	TickShuffle uint64 = iota + 1
	// TickXBotOptimize starts one X-BOT optimization attempt (internal/xbot).
	TickXBotOptimize
	// TickXBotExpire sweeps X-BOT's outstanding swap handshakes, dropping
	// the ones whose deadline has passed (internal/xbot).
	TickXBotExpire
	// TickPubSubFlush flushes the pub/sub router's pending publish batches
	// (internal/pubsub): every topic buffer that has not reached its size
	// threshold is broadcast now so batching trades bounded latency, never
	// unbounded latency, for bytes.
	TickPubSubFlush
	// TickProbe starts one round of the TCP agent's PING/PONG prober
	// (internal/transport): RTT measurement and half-open suspicion. The
	// agent handles it before the stack sees it.
	TickProbe
	// TickPlumtreeFlush flushes Plumtree's lazy queue (internal/plumtree):
	// the announcements queued since the tick was armed go out as one IHAVE
	// per peer. A node arms it when its queue stops being empty, so an idle
	// node runs no timer.
	TickPlumtreeFlush
)

var typeNames = [...]string{
	Join:               "JOIN",
	ForwardJoin:        "FORWARDJOIN",
	Disconnect:         "DISCONNECT",
	Neighbor:           "NEIGHBOR",
	NeighborReply:      "NEIGHBORREPLY",
	Shuffle:            "SHUFFLE",
	ShuffleReply:       "SHUFFLEREPLY",
	Gossip:             "GOSSIP",
	GossipAck:          "GOSSIPACK",
	CyclonShuffle:      "CYCLONSHUFFLE",
	CyclonShuffleReply: "CYCLONSHUFFLEREPLY",
	CyclonJoinWalk:     "CYCLONJOINWALK",
	ScampSubscribe:     "SCAMPSUBSCRIBE",
	ScampForwardSub:    "SCAMPFORWARDSUB",
	ScampKept:          "SCAMPKEPT",
	ScampUnsubscribe:   "SCAMPUNSUBSCRIBE",
	ScampHeartbeat:     "SCAMPHEARTBEAT",
	PlumtreeGossip:     "PLUMTREEGOSSIP",
	PlumtreeIHave:      "PLUMTREEIHAVE",
	PlumtreeGraft:      "PLUMTREEGRAFT",
	PlumtreePrune:      "PLUMTREEPRUNE",

	XBotOptimization:      "XBOTOPTIMIZATION",
	XBotOptimizationReply: "XBOTOPTIMIZATIONREPLY",
	XBotReplace:           "XBOTREPLACE",
	XBotReplaceReply:      "XBOTREPLACEREPLY",
	XBotSwitch:            "XBOTSWITCH",
	XBotSwitchReply:       "XBOTSWITCHREPLY",
	XBotDisconnectWait:    "XBOTDISCONNECTWAIT",

	Ping: "PING",
	Pong: "PONG",
	Tick: "TICK",
}

// String returns the conventional upper-case name of the message type.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Valid reports whether t is a known message type.
func (t Type) Valid() bool { return t >= Join && t < maxType }

// Priority is carried by NEIGHBOR requests (paper §4.3).
type Priority uint8

// Neighbor request priorities.
const (
	// LowPriority requests are accepted only when the receiver has a free
	// active-view slot.
	LowPriority Priority = iota + 1
	// HighPriority requests are always accepted, evicting a random active
	// member if necessary. Sent when the requester's active view is empty.
	HighPriority
)

// String returns "low" or "high".
func (p Priority) String() string {
	if p == HighPriority {
		return "high"
	}
	return "low"
}

// Entry is a view entry exchanged by Cyclon shuffles: a node identifier
// tagged with its age in shuffle cycles.
type Entry struct {
	Node id.ID
	Age  uint16
}

// Message is the single wire-level message structure. Fields are used
// depending on Type; unused fields stay at their zero values and encode
// compactly.
//
// Ownership: Message is copied by value everywhere, and its slice fields are
// shared between those copies under the copy-on-write discipline documented
// on the peer package ("Message ownership"): a slice is frozen the moment the
// message is handed to an environment's Send, per-hop mutation touches only
// the scalar fields on a fresh struct copy, and whoever needs to modify a
// list copies it first. Broadcast fan-out therefore shares one payload buffer
// across every receiver instead of deep-copying per link.
type Message struct {
	Type Type

	// Sender is the node that emitted this hop of the message. For relayed
	// messages (FORWARDJOIN, SHUFFLE) it is the previous hop, not the origin.
	Sender id.ID

	// Subject is the node the message is about: the joiner in JOIN and
	// FORWARDJOIN, the origin in SHUFFLE, the subscriber in Scamp messages.
	Subject id.ID

	// TTL is the remaining time-to-live of random-walked messages.
	TTL uint8

	// Priority of a NEIGHBOR request.
	Priority Priority

	// Accept is the verdict carried by NEIGHBORREPLY.
	Accept bool

	// Nodes carries identifier lists (shuffle exchange contents, Scamp
	// forwarded views).
	Nodes []id.ID

	// Entries carries aged view entries for Cyclon shuffles.
	Entries []Entry

	// Round is the broadcast round / message identifier for GOSSIP.
	Round uint64

	// Hops counts overlay hops travelled by a GOSSIP message, used by the
	// evaluation to reproduce Table 1's "maximum hops to delivery".
	Hops uint16

	// Topic tags a GOSSIP/PLUMTREEGOSSIP round with the pub/sub topic it
	// belongs to. 0 means untagged (plain broadcast); the high bit is
	// reserved by internal/pubsub as its batch-frame flag, so application
	// topics are < 1<<31. Like Round it is a scalar: per-hop forwarding
	// copies it for free and the cached payload keeps its tag for GRAFT
	// retransmission.
	Topic uint32

	// CostOld and CostNew carry the link costs measured by an X-BOT
	// optimization initiator: the cost of the active link it wants to drop
	// (initiator–old neighbor) and of the link it wants to create
	// (initiator–candidate). They ride on XBOTOPTIMIZATION and are relayed
	// by XBOTREPLACE so the disconnected node can evaluate the 4-node swap
	// condition with only locally measurable additions.
	CostOld uint64
	CostNew uint64

	// Payload is the opaque application payload of a GOSSIP message.
	Payload []byte

	// Directory carries (identifier, dialable address) pairs for node
	// identifiers referenced by this message. The paper's identifiers are
	// (ip, port) tuples; our compact IDs need this side table so that a
	// receiver can open connections to nodes it just learned about. The
	// TCP transport fills and consumes it transparently; the simulator
	// ignores it.
	Directory []DirEntry
}

// DirEntry maps a node identifier to its dialable address.
type DirEntry struct {
	Node id.ID
	Addr string
}

// Clone returns a deep copy of m. No protocol hot path uses it — forwarding
// shares slices copy-on-write (see the ownership rules on package peer) —
// but callers that need a mutable or lifetime-independent copy (tests,
// persistence) take one here.
func (m Message) Clone() Message {
	c := m
	if m.Nodes != nil {
		c.Nodes = make([]id.ID, len(m.Nodes))
		copy(c.Nodes, m.Nodes)
	}
	if m.Entries != nil {
		c.Entries = make([]Entry, len(m.Entries))
		copy(c.Entries, m.Entries)
	}
	if m.Payload != nil {
		c.Payload = make([]byte, len(m.Payload))
		copy(c.Payload, m.Payload)
	}
	if m.Directory != nil {
		c.Directory = make([]DirEntry, len(m.Directory))
		copy(c.Directory, m.Directory)
	}
	return c
}

// ReferencedIDs returns every node identifier the message mentions (sender,
// subject, node lists, entries); the transport uses it to build Directory.
func (m Message) ReferencedIDs() []id.ID {
	out := make([]id.ID, 0, 2+len(m.Nodes)+len(m.Entries))
	if !m.Sender.IsNil() {
		out = append(out, m.Sender)
	}
	if !m.Subject.IsNil() {
		out = append(out, m.Subject)
	}
	out = append(out, m.Nodes...)
	for _, e := range m.Entries {
		out = append(out, e.Node)
	}
	return out
}

// String renders a compact debugging representation.
func (m Message) String() string {
	return fmt.Sprintf("%s{from=%v subj=%v ttl=%d n=%d e=%d round=%d}",
		m.Type, m.Sender, m.Subject, m.TTL, len(m.Nodes), len(m.Entries), m.Round)
}
