// Package xbot implements the X-BOT topology-aware overlay optimization
// protocol (Leitão, Marques, Pereira, Rodrigues — "X-BOT: A Protocol for
// Resilient Optimization of Unstructured Overlays", SRDS 2009), the authors'
// follow-up to HyParView (DSN 2007).
//
// HyParView builds its active views obliviously: links are random, so
// broadcast pays whatever latencies chance hands it. X-BOT continuously
// rewires those views toward low-cost links using only local decisions,
// without changing node degrees and without giving up the random overlay's
// connectivity and healing properties.
//
// # The 4-node coordinated swap
//
// Each cycle, a node i with a full active view probes a few passive-view
// candidates against a cost Oracle. If some candidate c is cheaper than i's
// worst non-protected active neighbor o, i starts the handshake:
//
//	i ── OPTIMIZATION(o, cost(i,o), cost(i,c)) ──▶ c
//
// If c has a free active slot it simply accepts: the i–c link is created and
// i drops o (sending it DISCONNECTWAIT). Otherwise c picks its own worst
// non-protected neighbor d — the node it would disconnect — and delegates:
//
//	c ── REPLACE(i, o, costs) ──▶ d ── SWITCH(i, c) ──▶ o
//
// d accepts only when the swap strictly reduces total cost,
//
//	cost(i,c) + cost(d,o)  <  cost(i,o) + cost(c,d)
//
// which it can evaluate with the relayed costs plus the two links it can
// measure itself. o then trades its link to i for a link to d, and the
// acceptances travel back (SWITCHREPLY, REPLACEREPLY, OPTIMIZATIONREPLY),
// each hop committing one end of the two new links i–c and d–o. Every torn
// link is announced with DISCONNECTWAIT rather than silence or DISCONNECT:
// the receiver demotes the peer to its passive view without treating it as a
// failure and without immediately starting a repair promotion — the swap is
// about to hand it a replacement link, and if the handshake dies midway the
// next HyParView cycle's normal repair refills the slot. Active views
// therefore keep their size and symmetry through every completed swap.
//
// # Protected (unbiased) links
//
// Every link starts unbiased: created by HyParView's own join, repair and
// shuffle mechanisms, i.e. uniformly random. Links the optimizer creates are
// biased toward low cost. A node never dissolves an unbiased link — in any
// swap role: initiator, candidate choosing d, old neighbor answering SWITCH,
// disconnected node answering REPLACE — when that would leave it with fewer
// than Config.ProtectTopK unbiased links; biased links are always
// negotiable. This is the paper's u parameter, and it is a connectivity
// invariant, not a tuning knob: under clustered cost surfaces (transit-stub)
// a purely cost-greedy rewiring collapses each cluster into a disconnected
// island, while the protected random links keep the global overlay one
// component with the short diameter and healing properties of the oblivious
// original.
//
// # Layering
//
// Node wraps a HyParView core (any Membership implementation) and is itself
// a peer.Membership: the broadcast layer stacks on top unchanged, X-BOT
// traffic is intercepted in Deliver, everything else flows through. The cost
// Oracle is pluggable; simulations use a netsim.LatencyModel, deployments
// would plug RTT estimates.
package xbot

import (
	"errors"
	"sort"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
)

// Oracle measures link costs. Implementations must be symmetric
// (Cost(a,b) == Cost(b,a)) and cheap: the protocol calls Cost only for links
// adjacent to the calling node, which models a node measuring its own RTTs.
type Oracle interface {
	Cost(a, b id.ID) uint64
}

// CostKnower is optionally implemented by oracles that may lack estimates
// for some links (live RTT measurement, unlike a simulator's closed-form
// latency model). When the oracle implements it, the protocol refuses to
// rank or dissolve links whose cost is not yet known: deciding a swap on a
// sentinel value would evict possibly-cheap links on no evidence. Calling
// Cost for an unknown link is still allowed — and is how measuring oracles
// learn which links to measure — but its return value is only trusted when
// KnownCost reports true.
type CostKnower interface {
	KnownCost(a, b id.ID) bool
}

// Membership is the contract X-BOT needs from the membership protocol it
// optimizes: the peer.Membership behaviour plus surgical active-view access.
// *core.Node implements it.
type Membership interface {
	peer.Membership

	// Active and Passive return copies of the two views.
	Active() []id.ID
	Passive() []id.ID
	// ActiveContains reports active-view membership.
	ActiveContains(peer id.ID) bool
	// ActiveFull reports whether the active view is at capacity.
	ActiveFull() bool
	// PromoteActive admits peer into the active view; DemoteActive moves an
	// active member to the passive view without wire traffic or repair.
	PromoteActive(peer id.ID) bool
	DemoteActive(peer id.ID) bool
}

// Config parameterizes the optimizer. Zero fields take defaults.
type Config struct {
	// Period is the number of membership cycles between optimization
	// attempts in externally-driven cycle mode (OnCycle). Default 1
	// (attempt every cycle). Ignored when Interval is set.
	Period int

	// Interval, when non-zero, switches the optimizer to scheduler-driven
	// rounds: one optimization attempt every Interval ticks, registered on
	// the environment's peer.Scheduler at construction. OnCycle then runs
	// only the wrapped protocol's cycle. This is the paper-faithful periodic
	// mode; the cluster harness derives it from the membership shuffle
	// interval. Default 0 (cycle-driven).
	Interval uint64

	// Candidates is the number of passive-view members probed per attempt
	// (the paper's Passive Scan Length). Default 2.
	Candidates int

	// ProtectTopK is the minimum number of unbiased links — links created
	// by the membership protocol's own random mechanisms, not by
	// optimization — each node preserves: the paper's u parameter. A node
	// refuses, in any swap role, to dissolve an unbiased link when at or
	// below this floor, which keeps enough randomness in every active view
	// to preserve global connectivity under clustered cost surfaces.
	// Default 1.
	ProtectTopK int

	// PendingTTL is how long, in scheduler ticks, an unanswered handshake
	// may stay outstanding before its state is dropped (peers crash,
	// replies get lost to partitions). Every handshake arms an expiry sweep
	// via peer.Scheduler.After; the sweep fires behind all in-flight
	// traffic, so in the simulator's FIFO mode a stuck handshake is
	// reclaimed as soon as the event heap proves no reply is coming, while
	// under a latency model or the real clock the TTL must exceed the
	// 4-node handshake's round-trip. Default 5000.
	PendingTTL uint64
}

// DeriveInterval fills Interval from the duration of one membership round
// in scheduler ticks — Period rounds per optimization attempt — unless an
// explicit Interval is already set or there is no round clock. Both
// environments derive the cadence through this one rule, so the simulator
// and the deployment can never silently disagree on it.
func (c Config) DeriveInterval(roundTicks uint64) Config {
	if c.Interval != 0 || roundTicks == 0 {
		return c
	}
	period := c.Period
	if period <= 0 {
		period = 1
	}
	c.Interval = roundTicks * uint64(period)
	return c
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Period == 0 {
		c.Period = 1
	}
	if c.Candidates == 0 {
		c.Candidates = 2
	}
	if c.ProtectTopK == 0 {
		c.ProtectTopK = 1
	}
	if c.PendingTTL == 0 {
		c.PendingTTL = 5000
	}
	return c
}

// Stats counts optimizer activity on one node.
type Stats struct {
	Attempts        uint64 // OPTIMIZATION messages sent (initiator role)
	SwapsCompleted  uint64 // accepted OPTIMIZATIONREPLYs (links improved)
	SwapsRejected   uint64 // rejected OPTIMIZATIONREPLYs
	ReplacesHandled uint64 // REPLACE evaluations (disconnected role)
	SwitchesHandled uint64 // SWITCH evaluations (old-neighbor role)
	DisconnectWaits uint64 // DISCONNECTWAIT notifications received
	Expired         uint64 // handshakes dropped by the pending timeout
}

// initState is the initiator's outstanding handshake.
type initState struct {
	old       id.ID // the active neighbor being replaced
	candidate id.ID
	deadline  uint64 // scheduler tick after which the handshake expires
}

// candState is the candidate's outstanding delegation, keyed by initiator.
type candState struct {
	old      id.ID // the initiator's neighbor being replaced
	evictee  id.ID // d: the neighbor this node offered to disconnect
	deadline uint64
}

// discState is the disconnected node's outstanding switch, keyed by
// initiator.
type discState struct {
	candidate id.ID // c: the neighbor this node will trade away
	old       id.ID // o: the replacement neighbor being negotiated
	deadline  uint64
}

// Node is one X-BOT optimizer instance layered over a Membership. It is not
// safe for concurrent use, matching every other protocol in this repository.
type Node struct {
	env    peer.Env
	self   id.ID
	inner  Membership
	oracle Oracle
	cfg    Config

	pending     *initState
	asCandidate map[id.ID]*candState
	asDisc      map[id.ID]*discState

	// biased marks active links created by the optimizer; everything else
	// in the active view is an unbiased (random) link. Entries for links
	// that have since left the active view are pruned lazily.
	biased map[id.ID]bool

	cycles      int
	fallbackVer uint64 // synthetic NeighborVersion for unversioned inners
	stats       Stats
}

var _ peer.Membership = (*Node)(nil)

// New layers an X-BOT optimizer over inner, measuring links with oracle.
// With Config.Interval set, the optimization cadence is registered on the
// environment's scheduler here; otherwise rounds are driven by OnCycle.
func New(env peer.Env, inner Membership, cfg Config, oracle Oracle) *Node {
	if oracle == nil {
		panic("xbot: nil cost oracle")
	}
	n := &Node{
		env:         env,
		self:        env.Self(),
		inner:       inner,
		oracle:      oracle,
		cfg:         cfg.WithDefaults(),
		asCandidate: make(map[id.ID]*candState),
		asDisc:      make(map[id.ID]*discState),
		biased:      make(map[id.ID]bool),
	}
	if n.cfg.Interval > 0 {
		env.Every(n.cfg.Interval, msg.Message{
			Type: msg.Tick, Sender: n.self, Round: msg.TickXBotOptimize,
		})
	}
	return n
}

// Inner returns the wrapped membership protocol (tests, metrics).
func (n *Node) Inner() Membership { return n.inner }

// Config returns the effective configuration.
func (n *Node) Config() Config { return n.cfg }

// Stats returns a copy of the optimizer counters.
func (n *Node) Stats() Stats { return n.stats }

// Join bootstraps the wrapped protocol through contact; the experiment
// harness joins clusters through this method regardless of layering.
func (n *Node) Join(contact id.ID) error {
	if j, ok := n.inner.(interface{ Join(id.ID) error }); ok {
		return j.Join(contact)
	}
	return nil
}

// --- peer.Membership plumbing ----------------------------------------------

// Neighbors implements peer.Membership.
func (n *Node) Neighbors() []id.ID { return n.inner.Neighbors() }

// NeighborVersion implements peer.NeighborVersioned by forwarding the
// wrapped protocol's change counter: X-BOT rewires the inner active view but
// never maintains a neighborhood of its own. When the inner protocol carries
// no version, every call reports a fresh value so upper layers fall back to
// resynchronizing unconditionally — a constant would wrongly signal "never
// changed".
func (n *Node) NeighborVersion() uint64 {
	if v, ok := n.inner.(peer.NeighborVersioned); ok {
		return v.NeighborVersion()
	}
	n.fallbackVer++
	return n.fallbackVer
}

// GossipTargets implements peer.Membership. The result follows the
// interface's scratch-buffer contract (owned by the inner membership, valid
// until its next GossipTargets call).
func (n *Node) GossipTargets(fanout int, exclude id.ID) []id.ID {
	return n.inner.GossipTargets(fanout, exclude)
}

// OnPeerDown implements peer.Membership: handshake state referencing the
// dead peer is abandoned, then the failure is passed down for view repair.
func (n *Node) OnPeerDown(peerID id.ID) {
	n.dropPeerState(peerID)
	n.inner.OnPeerDown(peerID)
}

// Deliver implements peer.Membership: X-BOT traffic is consumed here,
// everything else reaches the wrapped protocol. Scheduler ticks addressed to
// this layer (optimization rounds, handshake expiry sweeps) are recognized
// by their kind; every other tick descends to the wrapped protocol.
func (n *Node) Deliver(from id.ID, m *msg.Message) {
	switch m.Type {
	case msg.Tick:
		if from == n.self {
			switch m.Round {
			case msg.TickXBotOptimize:
				n.tryOptimize()
				return
			case msg.TickXBotExpire:
				n.sweep()
				return
			}
		}
		n.inner.Deliver(from, m)
	case msg.XBotOptimization:
		n.onOptimization(from, m)
	case msg.XBotOptimizationReply:
		n.onOptimizationReply(from, m)
	case msg.XBotReplace:
		n.onReplace(from, m)
	case msg.XBotReplaceReply:
		n.onReplaceReply(from, m)
	case msg.XBotSwitch:
		n.onSwitch(from, m)
	case msg.XBotSwitchReply:
		n.onSwitchReply(from, m)
	case msg.XBotDisconnectWait:
		n.onDisconnectWait(from)
	default:
		n.inner.Deliver(from, m)
	}
}

// OnCycle implements peer.Membership: the wrapped protocol's cycle runs
// first (shuffle, repair), then — in cycle-driven mode, every Period
// cycles — one optimization attempt starts. With Config.Interval set the
// optimization cadence and handshake expiry ride the scheduler instead.
func (n *Node) OnCycle() {
	n.inner.OnCycle()
	if n.cfg.Interval != 0 {
		return
	}
	n.cycles++
	if n.cycles%n.cfg.Period == 0 {
		n.tryOptimize()
	}
}

// --- initiator role ---------------------------------------------------------

// tryOptimize starts one optimization round: probe candidates from the
// passive view, pick the cheapest, and propose replacing the costliest
// non-protected active link if the exchange is an improvement.
func (n *Node) tryOptimize() {
	if n.pending != nil || !n.inner.ActiveFull() {
		return
	}
	old, oldCost, ok := n.replaceable(n.inner.Active(), id.Nil)
	if !ok {
		return
	}
	candidate, candCost, ok := n.bestCandidate()
	if !ok || candCost >= oldCost {
		return
	}
	if n.send(candidate, msg.Message{
		Type:    msg.XBotOptimization,
		Sender:  n.self,
		Subject: old,
		CostOld: oldCost,
		CostNew: candCost,
	}) {
		n.pending = &initState{old: old, candidate: candidate, deadline: n.armExpiry()}
		n.stats.Attempts++
	}
}

// costKnown reports whether the oracle holds a trustworthy estimate for the
// local node's link to peer. Oracles without the CostKnower extension (the
// simulator's latency models) know every link.
func (n *Node) costKnown(peer id.ID) bool {
	if k, ok := n.oracle.(CostKnower); ok {
		return k.KnownCost(n.self, peer)
	}
	return true
}

// bestCandidate samples Config.Candidates passive members, skips the
// unreachable and already-active ones, and returns the cheapest.
func (n *Node) bestCandidate() (id.ID, uint64, bool) {
	passive := n.inner.Passive()
	r := n.env.Rand()
	r.Shuffle(len(passive), func(i, j int) { passive[i], passive[j] = passive[j], passive[i] })
	var (
		best     id.ID
		bestCost uint64
		found    bool
	)
	probed := 0
	for _, p := range passive {
		if probed >= n.cfg.Candidates {
			break
		}
		if p == n.self || n.inner.ActiveContains(p) {
			continue
		}
		probed++
		if n.env.Probe(p) != nil {
			continue // dead candidate; core's own probes purge it eventually
		}
		// Query the cost before the known-check: a measuring oracle uses the
		// query to start measuring the link, so the next attempt is informed.
		c := n.oracle.Cost(n.self, p)
		if !n.costKnown(p) {
			continue
		}
		if !found || c < bestCost {
			best, bestCost, found = p, c, true
		}
	}
	return best, bestCost, found
}

// replaceable returns the costliest active link this node is willing to
// dissolve — skipping exclude and protected (unbiased-floor) links — along
// with its cost.
func (n *Node) replaceable(active []id.ID, exclude id.ID) (id.ID, uint64, bool) {
	type link struct {
		peer id.ID
		cost uint64
	}
	links := make([]link, 0, len(active))
	for _, p := range active {
		cost := n.oracle.Cost(n.self, p)
		if !n.costKnown(p) {
			// Never rank — let alone dissolve — a link the oracle has no
			// estimate for; the Cost query above started its measurement.
			continue
		}
		links = append(links, link{peer: p, cost: cost})
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].cost != links[j].cost {
			return links[i].cost > links[j].cost
		}
		return links[i].peer > links[j].peer // deterministic under equal costs
	})
	for _, l := range links {
		if l.peer != exclude && !n.protected(l.peer) {
			return l.peer, l.cost, true
		}
	}
	return id.Nil, 0, false
}

// markBiased records that the active link to peer was created by the
// optimizer rather than by the membership protocol's random mechanisms.
func (n *Node) markBiased(peer id.ID) {
	if n.inner.ActiveContains(peer) {
		n.biased[peer] = true
	}
}

// demote dissolves the active link to peer and clears its bias mark
// immediately: if the membership protocol re-admits the same peer through
// its own random mechanisms — possibly before the next reconcileBias runs —
// that new link is unbiased again and must count toward the protection
// floor.
func (n *Node) demote(peer id.ID) bool {
	delete(n.biased, peer)
	return n.inner.DemoteActive(peer)
}

// reconcileBias prunes bias marks for links no longer in the active view:
// whatever replaces them (join, repair, shuffle promotion) is random again.
func (n *Node) reconcileBias() {
	for p := range n.biased {
		if !n.inner.ActiveContains(p) {
			delete(n.biased, p)
		}
	}
}

// protected reports whether dissolving the link to peer is forbidden: the
// link is unbiased and the node is at (or below) its ProtectTopK floor of
// unbiased links. Biased links — created by optimization — are always
// negotiable.
func (n *Node) protected(peer id.ID) bool {
	n.reconcileBias()
	if n.biased[peer] {
		return false
	}
	unbiased := len(n.inner.Active()) - len(n.biased)
	return unbiased <= n.cfg.ProtectTopK
}

// onOptimizationReply closes the initiator's handshake: on acceptance the
// candidate link is committed and the old link — if the 4-node path has not
// already dissolved it via DISCONNECTWAIT — is torn down directly.
func (n *Node) onOptimizationReply(from id.ID, m *msg.Message) {
	st := n.pending
	if st == nil || st.candidate != from {
		return // stale or duplicated reply
	}
	n.pending = nil
	if !m.Accept {
		n.stats.SwapsRejected++
		return
	}
	if n.inner.ActiveContains(st.old) {
		// Direct-accept path: the candidate had a free slot, so nobody told
		// the old neighbor. Dissolve the link ourselves.
		n.send(st.old, msg.Message{Type: msg.XBotDisconnectWait, Sender: n.self})
		n.demote(st.old)
	}
	n.inner.PromoteActive(from)
	n.markBiased(from)
	n.stats.SwapsCompleted++
}

// --- candidate role ---------------------------------------------------------

// onOptimization evaluates a proposal from initiator i. A free active slot
// accepts immediately; a full view delegates to the neighbor d this node
// would evict, provided trading d for i is itself an improvement.
func (n *Node) onOptimization(from id.ID, m *msg.Message) {
	if from == n.self || from.IsNil() || n.inner.ActiveContains(from) {
		// Already linked (or malformed): nothing to optimize.
		n.send(from, msg.Message{
			Type: msg.XBotOptimizationReply, Sender: n.self, Subject: m.Subject,
		})
		return
	}
	if !n.inner.ActiveFull() {
		n.inner.PromoteActive(from)
		n.markBiased(from)
		n.send(from, msg.Message{
			Type: msg.XBotOptimizationReply, Sender: n.self, Subject: m.Subject, Accept: true,
		})
		return
	}
	evictee, evicteeCost, ok := n.replaceable(n.inner.Active(), from)
	initiatorCost := n.oracle.Cost(n.self, from)
	if !ok || !n.costKnown(from) || initiatorCost >= evicteeCost || n.asCandidate[from] != nil {
		n.send(from, msg.Message{
			Type: msg.XBotOptimizationReply, Sender: n.self, Subject: m.Subject,
		})
		return
	}
	if n.send(evictee, msg.Message{
		Type:    msg.XBotReplace,
		Sender:  n.self,
		Subject: m.Subject,     // o, the initiator's old neighbor
		Nodes:   []id.ID{from}, // i, the initiator
		CostOld: m.CostOld,     // cost(i, o), relayed
		CostNew: m.CostNew,     // cost(i, c), relayed
	}) {
		n.asCandidate[from] = &candState{old: m.Subject, evictee: evictee, deadline: n.armExpiry()}
	} else {
		// The evictee died under us; the send already triggered repair.
		n.send(from, msg.Message{
			Type: msg.XBotOptimizationReply, Sender: n.self, Subject: m.Subject,
		})
	}
}

// onReplaceReply completes the candidate's side of the 4-node path: on
// acceptance the evictee link is gone (d tore it down) and the initiator
// link is committed.
func (n *Node) onReplaceReply(from id.ID, m *msg.Message) {
	initiator := m.Subject
	st := n.asCandidate[initiator]
	if st == nil || st.evictee != from {
		return
	}
	delete(n.asCandidate, initiator)
	if !m.Accept {
		n.send(initiator, msg.Message{
			Type: msg.XBotOptimizationReply, Sender: n.self, Subject: st.old,
		})
		return
	}
	if n.inner.ActiveContains(st.evictee) {
		// Under FIFO delivery d's DISCONNECTWAIT arrives first; under
		// reordering commit the demotion here.
		n.demote(st.evictee)
	}
	n.inner.PromoteActive(initiator)
	n.markBiased(initiator)
	n.send(initiator, msg.Message{
		Type: msg.XBotOptimizationReply, Sender: n.self, Subject: st.old, Accept: true,
	})
}

// --- disconnected role ------------------------------------------------------

// onReplace evaluates the swap from d's perspective: accept only when the
// total cost of the two new links beats the two old ones, the candidate link
// is not protected, and the initiator's old neighbor is reachable.
func (n *Node) onReplace(from id.ID, m *msg.Message) {
	n.stats.ReplacesHandled++
	if len(m.Nodes) != 1 {
		return // malformed
	}
	initiator, old := m.Nodes[0], m.Subject
	reject := func() {
		n.send(from, msg.Message{
			Type: msg.XBotReplaceReply, Sender: n.self, Subject: initiator,
		})
	}
	if !n.inner.ActiveContains(from) || n.protected(from) ||
		n.inner.ActiveContains(old) || old == n.self ||
		n.asDisc[initiator] != nil {
		reject()
		return
	}
	if n.env.Probe(old) != nil {
		reject()
		return
	}
	// The swap dissolves {i–o, c–d} and creates {i–c, d–o}: accept only on a
	// strict total-cost improvement (this also rules out swap oscillation).
	// Both locally measured terms must be genuine estimates — evaluating the
	// condition with an unknown-cost sentinel would accept or reject swaps
	// on no evidence (the Cost queries start the measurements either way).
	costDO := n.oracle.Cost(n.self, old)
	costCD := n.oracle.Cost(n.self, from)
	if !n.costKnown(old) || !n.costKnown(from) {
		reject()
		return
	}
	if m.CostNew+costDO >= m.CostOld+costCD {
		reject()
		return
	}
	if n.send(old, msg.Message{
		Type:    msg.XBotSwitch,
		Sender:  n.self,
		Subject: initiator,
		Nodes:   []id.ID{from}, // c, the candidate
	}) {
		n.asDisc[initiator] = &discState{candidate: from, old: old, deadline: n.armExpiry()}
	} else {
		reject()
	}
}

// onSwitchReply completes d's side: on acceptance the candidate link is
// dissolved (DISCONNECTWAIT) and the link to the initiator's old neighbor is
// committed; either way the outcome is relayed to the candidate.
func (n *Node) onSwitchReply(from id.ID, m *msg.Message) {
	initiator := m.Subject
	st := n.asDisc[initiator]
	if st == nil || st.old != from {
		return
	}
	delete(n.asDisc, initiator)
	if m.Accept {
		if n.inner.ActiveContains(st.candidate) {
			n.send(st.candidate, msg.Message{Type: msg.XBotDisconnectWait, Sender: n.self})
			n.demote(st.candidate)
		}
		n.inner.PromoteActive(from)
		n.markBiased(from)
	}
	n.send(st.candidate, msg.Message{
		Type: msg.XBotReplaceReply, Sender: n.self, Subject: initiator, Accept: m.Accept,
	})
}

// --- old-neighbor role ------------------------------------------------------

// onSwitch is the last negotiation step: o trades its link to the initiator
// for a link to d, unless the initiator link is protected or already gone.
func (n *Node) onSwitch(from id.ID, m *msg.Message) {
	n.stats.SwitchesHandled++
	initiator := m.Subject
	accept := n.inner.ActiveContains(initiator) &&
		!n.inner.ActiveContains(from) &&
		!n.protected(initiator)
	if accept {
		n.send(initiator, msg.Message{Type: msg.XBotDisconnectWait, Sender: n.self})
		n.demote(initiator)
		n.inner.PromoteActive(from)
		n.markBiased(from)
	}
	n.send(from, msg.Message{
		Type: msg.XBotSwitchReply, Sender: n.self, Subject: initiator, Accept: accept,
	})
}

// onDisconnectWait dissolves a link at the request of an optimizing peer:
// the peer is demoted to the passive view (it is alive and useful as a
// backup) without the repair kick a failure or DISCONNECT would trigger —
// the in-flight swap delivers a replacement link, and if it does not, the
// next cycle repairs normally.
func (n *Node) onDisconnectWait(from id.ID) {
	n.stats.DisconnectWaits++
	n.demote(from)
	if n.pending != nil && n.pending.old == from {
		// Our own swap's teardown arriving before the candidate's reply:
		// expected, keep waiting for the reply.
		return
	}
}

// --- shared plumbing --------------------------------------------------------

// send transmits m to dst, reporting proven-down peers to the wrapped
// protocol (X-BOT traffic doubles as a failure detector exactly like
// broadcast traffic does) and abandoning any handshake state involving the
// dead peer. Other send errors (queue-overflow degradation) lose the message
// without indicting the link; the handshake expiry sweep reclaims the state.
func (n *Node) send(dst id.ID, m msg.Message) bool {
	if dst.IsNil() || dst == n.self {
		return false
	}
	if err := n.env.Send(dst, m); err != nil {
		if errors.Is(err, peer.ErrPeerDown) {
			n.dropPeerState(dst)
			n.inner.OnPeerDown(dst)
		}
		return false
	}
	return true
}

// dropPeerState abandons handshake state that references peerID in any role.
func (n *Node) dropPeerState(peerID id.ID) {
	if st := n.pending; st != nil && (st.candidate == peerID || st.old == peerID) {
		n.pending = nil
	}
	for _, i := range sortedKeys(n.asCandidate) {
		st := n.asCandidate[i]
		if i == peerID || st.evictee == peerID || st.old == peerID {
			delete(n.asCandidate, i)
		}
	}
	for _, i := range sortedKeys(n.asDisc) {
		st := n.asDisc[i]
		if i == peerID || st.candidate == peerID || st.old == peerID {
			delete(n.asDisc, i)
		}
	}
}

// armExpiry stamps a new handshake's deadline and schedules the sweep that
// reclaims its state if the counterpart crashes or the reply is lost.
func (n *Node) armExpiry() uint64 {
	n.env.After(n.cfg.PendingTTL, msg.Message{
		Type: msg.Tick, Sender: n.self, Round: msg.TickXBotExpire,
	})
	return n.env.Now() + n.cfg.PendingTTL
}

// sweep drops every outstanding handshake whose deadline has passed. Sweeps
// fired by one handshake's timer never reap a younger handshake: its
// deadline is strictly later than the sweeping tick.
func (n *Node) sweep() {
	now := n.env.Now()
	if st := n.pending; st != nil && now >= st.deadline {
		n.pending = nil
		n.stats.Expired++
	}
	for _, i := range sortedKeys(n.asCandidate) {
		if now >= n.asCandidate[i].deadline {
			delete(n.asCandidate, i)
			n.stats.Expired++
		}
	}
	for _, i := range sortedKeys(n.asDisc) {
		if now >= n.asDisc[i].deadline {
			delete(n.asDisc, i)
			n.stats.Expired++
		}
	}
}

// sortedKeys returns the map keys ascending, keeping iteration deterministic
// under a fixed seed.
func sortedKeys[V any](m map[id.ID]V) []id.ID {
	out := make([]id.ID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
