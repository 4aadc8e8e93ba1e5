// Package peer defines the contracts shared by every membership protocol in
// this repository and by the two environments that host them (the
// discrete-event simulator and the real TCP transport).
//
// Splitting these interfaces into their own package keeps the protocol
// packages (core, cyclon, scamp), the broadcast layer (gossip) and the
// environments (netsim, transport) free of import cycles.
package peer

import (
	"errors"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/rng"
)

// ErrPeerDown is returned by Env.Send and Env.Probe when the destination has
// failed or is unreachable. It models a TCP connection reset/refusal: the
// paper relies on exactly this signal as its failure detector (§1 item iii).
var ErrPeerDown = errors.New("peer: destination down")

// ErrOverflow is returned (wrapped) by Env.Send when the environment sheds
// the message under overload instead of queueing it unboundedly. Only the TCP
// transport sheds, when a peer's bounded send queue is full; the simulator
// queues every message. It is deliberately distinct from ErrPeerDown —
// an overloaded link is alive, and tearing it down would amplify exactly the
// message storm that caused the shed. Protocols treat it as a lost message.
var ErrOverflow = errors.New("peer: send queue overflow")

// Message ownership.
//
// msg.Message is a value type whose slice fields (Payload, Nodes, Entries,
// Directory) are shared, never defensively copied, on the hot path. The
// environments and every protocol in this repository observe one
// copy-on-write discipline:
//
//   - A slice handed to Env.Send is frozen: neither the sender nor any
//     receiver may mutate its contents afterwards, ever. The simulator hands
//     the same backing arrays to every receiver of a fan-out (one payload
//     buffer serves a whole broadcast); the TCP transport encodes from them
//     before Send returns.
//   - Per-hop mutation happens on the value fields only (TTL, Hops, Sender):
//     a forwarder copies the struct — `fwd := m; fwd.TTL--` — which shares
//     the slices and rewrites the scalars. That is the write part of
//     copy-on-write, and it is what keeps relaying allocation-free.
//   - A receiver that needs to *change* a slice (integrate a shuffle list,
//     build a reply) copies it first, into scratch it owns.
//   - A received slice is lent: read-only, and valid until Deliver returns.
//     The TCP transport decodes each frame's payload in place in its
//     connection's read buffer (msg.Decode), and the next frame overwrites
//     it. Only an environment that declares FrozenBodies — the simulator,
//     whose bodies live as long as the run — lets a receiver retain a
//     received slice beyond the handler return; everywhere else a receiver
//     copies what it keeps (Plumtree's retention ring copies each payload
//     into an arena of its own, see FrozenBodies).
//   - Delivery callbacks (gossip.Delivery, pubsub.Handler, the TCP agent's
//     OnDeliver) receive the payload under the same loan: read-only, and
//     valid until the callback returns. Applications that keep it copy it.
//   - Deliver receives the message by pointer, and the pointee is the
//     environment's: the simulator passes the body it stores (which other
//     receivers of the same fan-out may share), the TCP agent a frame it owns.
//     It is read-only and valid until Deliver returns. Every layer passes the
//     same pointer down (pubsub → gossip|Plumtree → X-BOT → core, Cyclon or
//     Scamp) and none writes through it or keeps it: a relay copies the
//     struct (`fwd := *m`), and what must outlive the call is copied out —
//     scalars by value, slices under the rules above.
//
// msg.Message.Clone remains available for the rare caller that needs a
// deeply owned copy (tests, persistence, a fault hook that records what
// passes it), but no protocol hot path uses it.

// Scheduler is the time contract every environment provides alongside message
// delivery. Time is measured in ticks, an abstract unit each environment maps
// onto its own clock: the simulator counts virtual ticks on its event heap
// (the same unit its latency models speak), the TCP transport maps one tick
// to one millisecond of wall time.
//
// Scheduled messages are delivered to the local process exactly like network
// traffic, with from == Self(); a protocol recognizes its own timers by
// (type, sender) — see msg.Tick for the shared convention. Delivery is
// ordered: of two scheduled messages, the one with the earlier deadline is
// delivered first, and the simulator breaks ties by scheduling order.
//
// This is the PeerSim-style engine contract the paper's evaluation (§5)
// assumes: every periodic protocol behavior — HyParView's shuffle rounds,
// Plumtree's IHAVE timers, X-BOT's optimization cadence — is expressed
// against it once and runs identically in virtual and real time.
type Scheduler interface {
	// Now returns the current time in ticks. It never decreases.
	Now() uint64

	// After schedules m for delivery to the local process once delay ticks
	// have elapsed. A zero delay means "behind everything already in
	// flight": the message is delivered after all traffic queued at the
	// current instant. One-shot; scheduling is infallible.
	After(delay uint64, m msg.Message)

	// Every registers a periodic delivery of m every interval ticks, first
	// firing one interval from now. The registration lives as long as the
	// node: the simulator stops delivering to failed nodes, the transport
	// stops when the agent closes. A zero interval is clamped to one tick.
	Every(interval uint64, m msg.Message)
}

// Env is the environment a protocol instance runs in. The simulator provides
// a synchronous deterministic implementation; the transport package provides
// one backed by real TCP connections. Every environment is also a Scheduler:
// protocols own their timers instead of being driven by external cycle calls.
type Env interface {
	Scheduler

	// Self returns the identifier of the local node.
	Self() id.ID

	// Send delivers m to dst. It returns ErrPeerDown (possibly wrapped) when
	// dst is known to have failed; protocols built on reliable transports
	// treat that as failure detection, protocols modelling lossy gossip
	// ignore it.
	Send(dst id.ID, m msg.Message) error

	// Probe attempts to establish a connection to dst without sending
	// anything, modelling a bare TCP connect (paper §4.3: the first step of
	// replacing a failed active-view member).
	Probe(dst id.ID) error

	// Rand returns the node's private deterministic random stream.
	Rand() *rng.Rand

	// Watch registers interest in connection-level failure notifications
	// for dst, modelling an open TCP connection: if dst fails while
	// watched, the environment invokes the process's OnPeerDown (see
	// FailureObserver). HyParView watches its active view — TCP doubles as
	// its failure detector (§4.1 item iii) — while Cyclon and Scamp, which
	// keep no connections open, never watch anything.
	Watch(dst id.ID)

	// Unwatch cancels a Watch, modelling closing the connection.
	Unwatch(dst id.ID)
}

// FailureObserver is implemented by processes that want asynchronous
// connection-breakage notifications for peers they Watch.
type FailureObserver interface {
	OnPeerDown(peerID id.ID)
}

// RefSender is an optional Env extension for fan-out hot paths: Send with
// the message passed by reference. Semantics are identical to Env.Send —
// the callee copies what it keeps and never retains the pointer — but a
// broadcast layer pushing one frozen message to k neighbors avoids k
// by-value struct copies at the call boundary. Callers must treat *m as
// frozen exactly as if it had been passed to Send. Environments whose Send
// is dominated by I/O (the TCP transport) need not implement it; layers
// probe for it once at construction and fall back to Send.
type RefSender interface {
	SendRef(dst id.ID, m *msg.Message) error
}

// FrozenBodies is an optional Env marker: the slices of every message the
// environment delivers stay frozen for the environment's whole life, so a
// receiver may alias them past Deliver instead of copying (see "Message
// ownership" above). The simulator declares it: one payload buffer serves
// every receiver of a broadcast, and a copy per retaining node would
// multiply the bytes held by the population. The TCP transport does not, as
// it lends each payload from a read buffer the next frame reuses. Layers
// probe for it once at construction; an environment that does not declare
// it is treated as lending, which costs a copy, never a corrupted payload.
type FrozenBodies interface {
	FrozenBodies()
}

// Membership is the behaviour every membership protocol exposes to the
// gossip broadcast layer and to the experiment harness.
type Membership interface {
	// Deliver processes one membership protocol message from the network.
	// *m is read-only and valid until Deliver returns ("Message ownership"
	// above): copy what must outlive the call, never the pointer.
	Deliver(from id.ID, m *msg.Message)

	// OnCycle executes one periodic membership step (the cyclic part of the
	// protocol: HyParView and Cyclon shuffles, Scamp lease/heartbeats).
	OnCycle()

	// Neighbors returns the node's current overlay out-neighbors: the active
	// view for HyParView, the partial view for Cyclon and Scamp. The result
	// is a fresh slice.
	Neighbors() []id.ID

	// GossipTargets returns the peers a broadcast should be forwarded to,
	// excluding exclude (usually the hop the message arrived from). Flooding
	// protocols return all neighbors; peer-sampling protocols return fanout
	// random members. The returned slice is owned by the membership instance
	// and only valid until its next GossipTargets call: it is a reused
	// scratch buffer on the per-delivery hot path, so callers iterate it
	// immediately and never retain or mutate it.
	GossipTargets(fanout int, exclude id.ID) []id.ID

	// OnPeerDown informs the protocol that a send to peerID failed. This is
	// the reactive failure-detection path: HyParView repairs its active
	// view, CyclonAcked purges the entry, plain Cyclon and Scamp ignore it.
	OnPeerDown(peerID id.ID)
}

// Process is the unit the simulator schedules: message delivery plus the
// periodic cycle hook. Deliver's *m is the environment's copy, read-only and
// valid until Deliver returns ("Message ownership" above); the simulator
// hands over the body it stores, so a handler that wrote through m would
// change what later receivers of the same send see.
type Process interface {
	Deliver(from id.ID, m *msg.Message)
	OnCycle()
}

// NeighborVersioned is an optional Membership extension: a change counter
// over the Neighbors set. The counter increments whenever the overlay
// neighborhood changes (any addition or removal); it never decreases.
//
// Layers that mirror the neighborhood — Plumtree's eager/lazy partition —
// poll the version on every delivery and resynchronize only when it moved,
// turning an allocate-and-diff per event into a single integer compare in
// steady state. Memberships that do not implement the interface are
// resynchronized unconditionally, which is correct but pays the full diff on
// every delivery. Wrapping layers (X-BOT) forward the inner protocol's
// version.
type NeighborVersioned interface {
	NeighborVersion() uint64
}
