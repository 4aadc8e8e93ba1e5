package core

import (
	"errors"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/view"
)

// Stats counts protocol events on one node; useful for tests, ablations and
// operational metrics.
type Stats struct {
	JoinsHandled       uint64
	ForwardJoins       uint64
	ShufflesInitiated  uint64
	ShufflesAccepted   uint64
	ShufflesRelayed    uint64
	NeighborRequests   uint64
	NeighborAccepts    uint64
	NeighborRejects    uint64
	Promotions         uint64 // passive -> active moves completed
	Disconnects        uint64 // DISCONNECT notifications received
	PeerFailures       uint64 // active members detected as failed
	PassiveEvictions   uint64 // failed probes purging passive entries
	ActiveDemotions    uint64 // live members moved active -> passive
	IsolationRecovered uint64 // promotions that refilled an empty active view

	// Hardening counters: hostile or malformed shuffle traffic rejected at
	// the handler boundary (see sanitizePeerList, handleShuffleReply).
	ShuffleEntriesRejected    uint64 // self/nil/duplicate/overflow entries dropped
	UnsolicitedShuffleReplies uint64 // SHUFFLEREPLYs with no shuffle outstanding
}

// Node is one HyParView protocol instance. It is not safe for concurrent
// use: the simulator serializes deliveries, and the TCP agent runs each node
// under one agent lock.
type Node struct {
	env  peer.Env
	self id.ID
	cfg  Config

	// The views are embedded by value: every per-delivery lookup reaches
	// the member arrays through one pointer (the Node itself) instead of
	// chasing a second allocation.
	active  view.View
	passive view.View

	// pendingNeighbor is the passive member we sent a NEIGHBOR request to
	// and whose reply is outstanding; Nil when no request is in flight. At
	// most one promotion attempt runs at a time, and one still pending at
	// the next cycle is abandoned.
	pendingNeighbor id.ID

	// contact is the node Join was given. A node whose views both emptied
	// joins through it again (OnCycle): with no active and no passive
	// member, nothing else can bring it back into the overlay.
	contact id.ID

	// repairTried tracks passive members already attempted during the
	// current repair episode, so a node whose views are saturated with
	// rejecting peers does not loop forever on the same candidate. It is a
	// small reused slice (the passive view holds ≈30 entries): a linear scan
	// beats a map at this size and resetting an episode is a length
	// truncation, not a re-allocation.
	repairTried []id.ID

	// lastShuffleSent remembers the identifiers included in our most recent
	// SHUFFLE request; the paper's integration rule prefers evicting these
	// when the reply does not fit in the passive view (§4.4).
	lastShuffleSent []id.ID

	// Reused scratch buffers for the allocation-free steady-state paths.
	// Their contents never leave the node inside a message: slices handed to
	// Send are frozen by the ownership rules on package peer, so anything a
	// message carries (shuffle lists, replies) is freshly allocated instead.
	gossipScratch []id.ID // GossipTargets result (owned, valid until next call)
	pickScratch   []id.ID // pickRepairCandidate's shuffled passive snapshot
	rcvScratch    []id.ID // sanitizePeerList's filtered received-list copy

	listener Listener
	stats    Stats
}

var _ peer.Membership = (*Node)(nil)

// New constructs a HyParView node bound to env. Zero-valued Config fields are
// filled with the paper's defaults; an invalid configuration panics, as this
// is a programming error at construction time. With Config.ShuffleInterval
// set, the node registers its periodic round on the environment's scheduler
// here: the resulting TICKSHUFFLE is delivered to the top of the process
// stack, so broadcast and optimizer layers see it pass through before it
// lands in OnCycle.
func New(env peer.Env, cfg Config) *Node {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Node{
		env:  env,
		self: env.Self(),
		cfg:  cfg,
		// Sized for the full active view, which only a broadcast source
		// returns (exclude == Nil): a forward returns one neighbour fewer, and
		// growing on a node's first Broadcast would put an allocation on the
		// steady-state path.
		gossipScratch: make([]id.ID, 0, cfg.ActiveSize),
	}
	n.active.Init(cfg.ActiveSize)
	n.passive.Init(cfg.PassiveSize)
	if cfg.ShuffleInterval > 0 {
		env.Every(cfg.ShuffleInterval, msg.Message{
			Type: msg.Tick, Sender: n.self, Round: msg.TickShuffle,
		})
	}
	return n
}

// Join bootstraps this node into the overlay through contact (paper §4.2).
// The contact is optimistically added to the local active view; the JOIN
// message triggers the FORWARDJOIN random walks that advertise us. An error
// is returned when the contact is unreachable.
func (n *Node) Join(contact id.ID) error {
	if contact == n.self || contact.IsNil() {
		return nil
	}
	n.contact = contact
	return n.join()
}

// join sends JOIN to the remembered contact and takes it as an active
// member.
func (n *Node) join() error {
	if err := n.env.Send(n.contact, msg.Message{
		Type:   msg.Join,
		Sender: n.self,
	}); err != nil {
		return err
	}
	n.addActive(n.contact)
	return nil
}

// Config returns the node's effective configuration.
func (n *Node) Config() Config { return n.cfg }

// Self returns the node's identifier.
func (n *Node) Self() id.ID { return n.self }

// Stats returns a copy of the node's protocol counters.
func (n *Node) Stats() Stats { return n.stats }

// Active returns a copy of the active view membership.
func (n *Node) Active() []id.ID { return n.active.Members() }

// Passive returns a copy of the passive view membership.
func (n *Node) Passive() []id.ID { return n.passive.Members() }

// ActiveContains reports whether peerID is in the active view.
func (n *Node) ActiveContains(peerID id.ID) bool { return n.active.Contains(peerID) }

// PassiveContains reports whether peerID is in the passive view.
func (n *Node) PassiveContains(peerID id.ID) bool { return n.passive.Contains(peerID) }

// Neighbors implements peer.Membership: HyParView's overlay neighbors are
// the active view.
func (n *Node) Neighbors() []id.ID { return n.active.Members() }

// NeighborVersion implements peer.NeighborVersioned: the active view's
// change counter. Layers mirroring the neighborhood (Plumtree) resync only
// when it moves.
func (n *Node) NeighborVersion() uint64 { return n.active.Version() }

// GossipTargets implements peer.Membership. HyParView floods: every active
// member except the link the message arrived on (paper §4.1), so the fanout
// argument is ignored. Per the interface contract the result is a reused
// scratch buffer, valid only until the next call — this runs once per
// delivered broadcast and must not allocate.
func (n *Node) GossipTargets(_ int, exclude id.ID) []id.ID {
	n.gossipScratch = n.active.AppendExcept(n.gossipScratch[:0], exclude)
	return n.gossipScratch
}

// OnPeerDown implements peer.Membership: a send to an active member failed,
// which is HyParView's failure detection signal. The member is purged (NOT
// demoted to the passive view — it is dead) and a replacement promotion
// starts immediately (paper §4.3).
func (n *Node) OnPeerDown(peerID id.ID) {
	if n.active.Remove(peerID) {
		n.env.Unwatch(peerID)
		n.stats.PeerFailures++
		n.notifyDown(peerID, DownFailed)
		n.startRepair()
	}
	// A dead node lingering in the passive view will be purged when a probe
	// fails; purging it now is free and keeps the reservoir accurate.
	if n.passive.Remove(peerID) {
		n.stats.PassiveEvictions++
	}
}

// OnCycle implements peer.Membership: the periodic (cyclic) part of the
// protocol. It initiates one shuffle (paper §4.4) and, if the active view is
// deficient, one repair attempt. A node with both views empty joins its
// contact again instead.
func (n *Node) OnCycle() {
	if n.active.Empty() && n.passive.Empty() && !n.contact.IsNil() {
		_ = n.join() // an unreachable contact is retried next cycle
		return
	}
	n.initiateShuffle()
	// A NEIGHBOR request still pending a cycle later is abandoned: the
	// request or its reply was lost, or the candidate died. A dead
	// candidate is evicted; a live one is skipped this cycle, and a late
	// reply from it is settled in handleNeighborReply.
	abandoned := n.pendingNeighbor
	if !abandoned.IsNil() {
		if err := n.env.Probe(abandoned); err != nil && n.passive.Remove(abandoned) {
			n.stats.PassiveEvictions++
		}
		n.pendingNeighbor = id.Nil
	}
	if !n.active.Full() {
		// Each cycle starts a fresh repair episode: candidates that
		// rejected us earlier (their views were full) may have free slots
		// now, so the "repeat the whole procedure" of §4.3 must be able to
		// revisit them.
		n.resetRepairEpisode()
		if !abandoned.IsNil() {
			n.repairTried = append(n.repairTried, abandoned)
		}
		n.startRepair()
	}
}

// Deliver implements peer.Membership: dispatches one protocol message.
func (n *Node) Deliver(from id.ID, m *msg.Message) {
	switch m.Type {
	case msg.Join:
		n.handleJoin(m.Sender)
	case msg.ForwardJoin:
		n.handleForwardJoin(m)
	case msg.Disconnect:
		n.handleDisconnect(m.Sender)
	case msg.Neighbor:
		n.handleNeighbor(m.Sender, m.Priority)
	case msg.NeighborReply:
		n.handleNeighborReply(m.Sender, m.Accept)
	case msg.Shuffle:
		n.handleShuffle(m)
	case msg.ShuffleReply:
		n.handleShuffleReply(m)
	case msg.Tick:
		// The node's own scheduled periodic round (Config.ShuffleInterval);
		// ticks of other kinds belong to other layers and are ignored here,
		// the bottom of the stack.
		if m.Round == msg.TickShuffle && from == n.self {
			n.OnCycle()
		}
	default:
		// Unknown or non-membership message: ignore. The gossip layer
		// dispatches broadcast traffic before it reaches us.
		_ = from
	}
}

// --- Join mechanism (paper §4.2, Algorithm 1) -------------------------------

func (n *Node) handleJoin(newNode id.ID) {
	if newNode == n.self || newNode.IsNil() {
		return
	}
	n.stats.JoinsHandled++
	n.addActive(newNode)
	// Propagate the new node through ARWL-long random walks starting at
	// every other active member.
	for _, m := range n.active.Members() {
		if m == newNode {
			continue
		}
		n.sendOrFail(m, msg.Message{
			Type:    msg.ForwardJoin,
			Sender:  n.self,
			Subject: newNode,
			TTL:     n.cfg.ARWL,
		})
	}
}

func (n *Node) handleForwardJoin(m *msg.Message) {
	newNode, sender := m.Subject, m.Sender
	if newNode == n.self || newNode.IsNil() {
		return
	}
	n.stats.ForwardJoins++
	// Accept into the active view when the walk expired or when we are
	// nearly isolated (paper: |active| == 1).
	if m.TTL == 0 || n.active.Len() <= 1 {
		n.connectTo(newNode)
		return
	}
	if m.TTL == n.cfg.PRWL {
		n.addPassive(newNode)
	}
	next, ok := n.active.RandomExcept(n.env.Rand(), sender)
	if !ok {
		// No forwarding option other than the sender: accept locally
		// rather than dropping the joiner on the floor.
		n.connectTo(newNode)
		return
	}
	fwd := *m
	fwd.Sender = n.self
	fwd.TTL = m.TTL - 1
	if err := n.env.Send(next, fwd); err != nil {
		if errors.Is(err, peer.ErrPeerDown) {
			n.OnPeerDown(next)
		}
		n.connectTo(newNode)
	}
}

// connectTo adds newNode to the active view and notifies it with a
// high-priority NEIGHBOR request so that the link becomes symmetric. In a
// deployment this is the moment the TCP connection is established.
func (n *Node) connectTo(newNode id.ID) {
	if newNode == n.self || n.active.Contains(newNode) {
		return
	}
	if err := n.env.Send(newNode, msg.Message{
		Type:     msg.Neighbor,
		Sender:   n.self,
		Priority: msg.HighPriority,
	}); err != nil {
		// The joiner died before we could link to it; nothing to repair,
		// we never added it.
		return
	}
	n.addActive(newNode)
}

// --- Active view management (paper §4.3) ------------------------------------

// addActive inserts node into the active view, evicting a random member with
// a DISCONNECT notification when full (Algorithm 1, addNodeActiveView).
func (n *Node) addActive(node id.ID) {
	if node == n.self || node.IsNil() || n.active.Contains(node) {
		return
	}
	if n.active.Full() {
		n.dropRandomActive()
	}
	// Keep the views disjoint: promotion removes the id from passive.
	if n.passive.Remove(node) {
		n.stats.Promotions++
	}
	n.active.Add(node)
	// Model the open TCP connection: watch the peer so its failure is
	// detected even when we are not the one sending (a reset reaches both
	// ends of a connection).
	n.env.Watch(node)
	n.notifyUp(node)
	// The active view changed; stale repair bookkeeping no longer applies.
	n.resetRepairEpisode()
}

// dropRandomActive ejects a uniformly random active member, notifies it, and
// demotes it to the passive view (Algorithm 1, dropRandomElementFromActiveView).
func (n *Node) dropRandomActive() {
	victim, ok := n.active.RemoveRandom(n.env.Rand())
	if !ok {
		return
	}
	n.stats.ActiveDemotions++
	n.env.Unwatch(victim)
	n.notifyDown(victim, DownEvicted)
	// Ignore send errors: if the victim is dead we simply skip the
	// courtesy notification.
	_ = n.env.Send(victim, msg.Message{Type: msg.Disconnect, Sender: n.self})
	n.addPassive(victim)
}

func (n *Node) handleDisconnect(peerID id.ID) {
	if !n.active.Remove(peerID) {
		return
	}
	n.env.Unwatch(peerID)
	n.stats.Disconnects++
	n.notifyDown(peerID, DownDisconnected)
	// The peer is alive (it spoke to us); keep it as a backup (§4.5).
	n.addPassive(peerID)
	n.startRepair()
}

func (n *Node) handleNeighbor(from id.ID, prio msg.Priority) {
	n.stats.NeighborRequests++
	accept := false
	switch {
	case from == n.self || from.IsNil():
		// Malformed; reject.
	case n.active.Contains(from):
		accept = true
	case prio == msg.HighPriority && !n.cfg.DisablePriority:
		// High priority is always accepted, evicting if needed.
		n.addActive(from)
		accept = true
	case !n.active.Full():
		n.addActive(from)
		accept = true
	}
	if accept {
		n.stats.NeighborAccepts++
	} else {
		n.stats.NeighborRejects++
	}
	if err := n.env.Send(from, msg.Message{
		Type:   msg.NeighborReply,
		Sender: n.self,
		Accept: accept,
	}); errors.Is(err, peer.ErrPeerDown) {
		n.OnPeerDown(from)
	}
}

func (n *Node) handleNeighborReply(from id.ID, accept bool) {
	if from != n.pendingNeighbor {
		n.handleLateNeighborReply(from, accept)
		return
	}
	n.pendingNeighbor = id.Nil
	if accept {
		wasEmpty := n.active.Empty()
		// Paper §4.3: only on acceptance does the initiator move the peer
		// from the passive to the active view.
		n.addActive(from)
		if wasEmpty {
			n.stats.IsolationRecovered++
		}
		return
	}
	// Rejected: the peer stays in our passive view and we try another
	// candidate (paper §4.3).
	if !n.triedInEpisode(from) {
		n.repairTried = append(n.repairTried, from)
	}
	n.startRepair()
}

// handleLateNeighborReply settles a reply to a request that is no longer
// pending — abandoned by OnCycle, or a high-priority NEIGHBOR from connectTo
// whose peer has left the active view since. An accepting replier has taken
// us into its active view, so the reply is handled like a low-priority
// NEIGHBOR: we take the peer if a slot is free, and otherwise answer with
// DISCONNECT, which moves us to its passive view. Either way no one-way
// edge is left behind. A rejection needs nothing.
func (n *Node) handleLateNeighborReply(from id.ID, accept bool) {
	if !accept || from == n.self || from.IsNil() || n.active.Contains(from) {
		return
	}
	if !n.active.Full() {
		n.addActive(from)
		return
	}
	_ = n.env.Send(from, msg.Message{Type: msg.Disconnect, Sender: n.self})
}

// triedInEpisode reports whether candidate was already attempted in the
// current repair episode (linear scan; the list is at most passive-view
// sized).
func (n *Node) triedInEpisode(candidate id.ID) bool {
	for _, t := range n.repairTried {
		if t == candidate {
			return true
		}
	}
	return false
}

// startRepair launches (or continues) a promotion attempt if the active view
// has a free slot and no NEIGHBOR request is outstanding.
func (n *Node) startRepair() {
	if n.active.Full() || !n.pendingNeighbor.IsNil() {
		return
	}
	for {
		candidate, ok := n.pickRepairCandidate()
		if !ok {
			return // passive view exhausted for this episode
		}
		// Paper §4.3: first establish a connection (TCP connect). A failed
		// probe purges the dead identifier from the passive view and the
		// procedure repeats with another candidate.
		if err := n.env.Probe(candidate); err != nil {
			n.passive.Remove(candidate)
			n.stats.PassiveEvictions++
			continue
		}
		prio := msg.LowPriority
		if n.active.Empty() && !n.cfg.DisablePriority {
			prio = msg.HighPriority
		}
		n.stats.NeighborRequests++
		if err := n.env.Send(candidate, msg.Message{
			Type:     msg.Neighbor,
			Sender:   n.self,
			Priority: prio,
		}); err != nil {
			if errors.Is(err, peer.ErrPeerDown) {
				n.passive.Remove(candidate)
				n.stats.PassiveEvictions++
				continue
			}
			// Overloaded, not dead: retry the episode next cycle.
			return
		}
		n.pendingNeighbor = candidate
		return
	}
}

// pickRepairCandidate selects a random passive member not yet tried in this
// repair episode.
func (n *Node) pickRepairCandidate() (id.ID, bool) {
	if n.passive.Empty() {
		return id.Nil, false
	}
	// The passive view is small (≈30): scanning a shuffled scratch copy is
	// cheap and guarantees termination of the episode.
	members := n.passive.AppendMembers(n.pickScratch[:0])
	n.pickScratch = members
	r := n.env.Rand()
	r.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	for _, m := range members {
		if !n.triedInEpisode(m) {
			return m, true
		}
	}
	return id.Nil, false
}

// resetRepairEpisode clears per-episode rejection bookkeeping in place.
func (n *Node) resetRepairEpisode() {
	n.repairTried = n.repairTried[:0]
}

// --- Passive view management (paper §4.4) -----------------------------------

// addPassive inserts node into the passive view following Algorithm 1's
// addNodePassiveView: never the local node, never a current active member,
// evict a random entry when full.
func (n *Node) addPassive(node id.ID) {
	if node == n.self || node.IsNil() ||
		n.active.Contains(node) || n.passive.Contains(node) {
		return
	}
	if n.passive.Full() {
		n.passive.RemoveRandom(n.env.Rand())
	}
	n.passive.AddAbsent(node)
}

// initiateShuffle starts one shuffle exchange with a random active neighbor
// (paper §4.4): the exchange list holds our id, ka active members and kp
// passive members, random-walked over the overlay with ShuffleTTL.
func (n *Node) initiateShuffle() {
	target, ok := n.active.Random(n.env.Rand())
	if !ok {
		return
	}
	r := n.env.Rand()
	// The list rides inside the SHUFFLE message for up to ShuffleTTL hops,
	// so it must be freshly allocated and stay frozen (ownership rules on
	// package peer) — a reused buffer would be corrupted under the next
	// shuffle while the walk is still relaying this one. SampleInto keeps
	// the assembly itself scratch-based and single-allocation.
	list := make([]id.ID, 0, 1+n.cfg.ShuffleKa+n.cfg.ShuffleKp)
	list = append(list, n.self)
	list = n.active.SampleInto(r, n.cfg.ShuffleKa, list)
	list = n.passive.SampleInto(r, n.cfg.ShuffleKp, list)
	n.lastShuffleSent = list
	n.stats.ShufflesInitiated++
	if err := n.env.Send(target, msg.Message{
		Type:    msg.Shuffle,
		Sender:  n.self,
		Subject: n.self, // walk origin
		TTL:     n.cfg.ShuffleTTL,
		Nodes:   list,
	}); errors.Is(err, peer.ErrPeerDown) {
		n.OnPeerDown(target)
	}
}

func (n *Node) handleShuffle(m *msg.Message) {
	origin, sender := m.Subject, m.Sender
	if origin == n.self {
		// Our own walk looped back to us; drop it.
		return
	}
	ttl := m.TTL
	if ttl > 0 {
		ttl--
	}
	// Keep walking while the TTL lives and we have someone other than the
	// sender to forward to (paper §4.4).
	if ttl > 0 && n.active.Len() > 1 {
		if next, ok := n.active.RandomExcept(n.env.Rand(), sender); ok && next != origin {
			fwd := *m
			fwd.Sender = n.self
			fwd.TTL = ttl
			if err := n.env.Send(next, fwd); err == nil {
				n.stats.ShufflesRelayed++
				return
			} else if errors.Is(err, peer.ErrPeerDown) {
				n.OnPeerDown(next)
			}
		}
	}
	// Accept: reply with an equally sized random passive sample over a
	// temporary connection straight back to the walk origin. The exchange
	// list is sanitized first — a lying peer may have packed it with our own
	// id, duplicates or garbage, and sizing the reply by the raw list would
	// let an oversized lie drain our whole passive view back to the attacker.
	n.stats.ShufflesAccepted++
	received := n.sanitizePeerList(m.Nodes)
	reply := n.passive.Sample(n.env.Rand(), len(received))
	// Ignore a send failure: the origin died and there is nothing to repair
	// (it was very likely not our neighbor).
	_ = n.env.Send(origin, msg.Message{
		Type:   msg.ShuffleReply,
		Sender: n.self,
		Nodes:  reply,
	})
	n.integrateShuffle(received, reply)
}

func (n *Node) handleShuffleReply(m *msg.Message) {
	if n.lastShuffleSent == nil {
		// No shuffle outstanding: an unsolicited, duplicated or reflected
		// reply (an attacker can forge a SHUFFLE whose walk origin is any
		// victim). Integrating it would hand an arbitrary sender control over
		// our passive view, so drop it at the boundary.
		n.stats.UnsolicitedShuffleReplies++
		return
	}
	sent := n.lastShuffleSent
	n.lastShuffleSent = nil
	n.integrateShuffle(n.sanitizePeerList(m.Nodes), sent)
}

// sanitizePeerList filters a shuffle exchange list at the handler boundary:
// our own id, nil ids and duplicates are dropped, and the list is capped at
// several times the largest exchange our own configuration would produce
// (remote configurations may legitimately differ, but a 16k-entry "exchange"
// is an attack, not a big node). The input is a frozen message slice, so the
// filtered copy lives in a reused scratch buffer, valid until the next call.
// Everything dropped here is counted in Stats.ShuffleEntriesRejected.
func (n *Node) sanitizePeerList(list []id.ID) []id.ID {
	max := 4 * (1 + n.cfg.ShuffleKa + n.cfg.ShuffleKp)
	if max < 16 {
		max = 16
	}
	out := n.rcvScratch[:0]
	for _, node := range list {
		if node == n.self || node.IsNil() || len(out) >= max {
			n.stats.ShuffleEntriesRejected++
			continue
		}
		dup := false
		for _, seen := range out {
			if seen == node {
				dup = true
				break
			}
		}
		if dup {
			n.stats.ShuffleEntriesRejected++
			continue
		}
		out = append(out, node)
	}
	n.rcvScratch = out
	return out
}

// integrateShuffle merges received identifiers into the passive view. When
// the view is full, eviction prefers identifiers that were sent to the peer
// in the same exchange, then falls back to random eviction (paper §4.4).
// sent — what went to the peer — is consumed in slice order to keep the
// simulation deterministic; it may be a frozen message slice and is only ever
// re-sliced, never written.
func (n *Node) integrateShuffle(received, sent []id.ID) {
	for _, node := range received {
		if node == n.self || node.IsNil() ||
			n.active.Contains(node) || n.passive.Contains(node) {
			continue
		}
		if n.passive.Full() {
			var evicted bool
			sent, evicted = n.evictSent(sent)
			if !evicted {
				n.passive.RemoveRandom(n.env.Rand())
			}
		}
		// Absent by the test above, and the eviction left a free slot.
		n.passive.AddAbsent(node)
	}
}

// evictSent removes the first of sent that is still a passive member,
// returning the candidates after it and whether an eviction happened. It
// only re-slices sent: one Remove per candidate, no write to the list.
func (n *Node) evictSent(sent []id.ID) ([]id.ID, bool) {
	for i, s := range sent {
		if n.passive.Remove(s) {
			return sent[i+1:], true
		}
	}
	return nil, false
}

// sendOrFail sends m to dst, invoking failure handling when the send proved
// the peer down. Other send errors (the transport's send-queue overflow)
// just lose the message: treating them as failures would tear
// down healthy links en masse exactly when the network is overloaded.
func (n *Node) sendOrFail(dst id.ID, m msg.Message) {
	if err := n.env.Send(dst, m); errors.Is(err, peer.ErrPeerDown) {
		n.OnPeerDown(dst)
	}
}
