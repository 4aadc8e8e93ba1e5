// Package cyclon implements the Cyclon membership protocol (Voulgaris,
// Gavidia, van Steen 2005), one of the two baselines the HyParView paper
// evaluates against, plus the paper's CyclonAcked variant (§5: Cyclon with
// ack-based failure detection during dissemination).
//
// Cyclon is a purely cyclic protocol: each node keeps a fixed-size partial
// view of (identifier, age) entries and periodically performs an "enhanced
// shuffle" with the oldest entry in its view. Joins are implemented with
// fixed-length random walks that preserve the in-degree of existing nodes.
package cyclon

import (
	"fmt"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
)

// Config carries the Cyclon parameters. Defaults follow the HyParView
// paper's experimental setting (§5.1): view size 35 (the sum of HyParView's
// active and passive sizes), shuffle length 14, random-walk TTL 5.
type Config struct {
	// ViewSize is the fixed partial-view capacity.
	ViewSize int

	// ShuffleLen is the number of entries exchanged per shuffle (including
	// the initiator's own fresh entry).
	ShuffleLen int

	// JoinTTL is the length of the random walks used by the join protocol.
	JoinTTL uint8

	// DetectFailures enables the CyclonAcked behaviour: when the gossip
	// layer reports a failed send (missing acknowledgment), the entry is
	// purged from the view. Plain Cyclon ignores such failures.
	DetectFailures bool
}

// DefaultConfig returns the paper's §5.1 Cyclon parameters.
func DefaultConfig() Config {
	return Config{ViewSize: 35, ShuffleLen: 14, JoinTTL: 5}
}

// AckedConfig returns the paper's CyclonAcked configuration.
func AckedConfig() Config {
	c := DefaultConfig()
	c.DetectFailures = true
	return c
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.ViewSize <= 0:
		return fmt.Errorf("cyclon: ViewSize must be positive, got %d", c.ViewSize)
	case c.ShuffleLen <= 0:
		return fmt.Errorf("cyclon: ShuffleLen must be positive, got %d", c.ShuffleLen)
	case c.ShuffleLen > c.ViewSize:
		return fmt.Errorf("cyclon: ShuffleLen (%d) exceeds ViewSize (%d)", c.ShuffleLen, c.ViewSize)
	}
	return nil
}

// WithDefaults fills zero-valued fields from DefaultConfig.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.ViewSize == 0 {
		c.ViewSize = d.ViewSize
	}
	if c.ShuffleLen == 0 {
		c.ShuffleLen = d.ShuffleLen
	}
	if c.JoinTTL == 0 {
		c.JoinTTL = d.JoinTTL
	}
	return c
}

// Stats counts protocol events on one node.
type Stats struct {
	ShufflesInitiated uint64
	ShufflesAnswered  uint64
	ShufflesLost      uint64 // initiations whose target was already dead
	JoinWalksEnded    uint64
	EntriesPurged     uint64 // CyclonAcked removals
}

// Node is one Cyclon protocol instance. Not safe for concurrent use.
type Node struct {
	env  peer.Env
	self id.ID
	cfg  Config

	entries []msg.Entry
	present map[id.ID]int // node -> index in entries

	// lastSent remembers the entries shipped in our outstanding shuffle
	// request; the integration rule replaces exactly these when the view is
	// full.
	lastSent []msg.Entry

	// gossipScratch backs GossipTargets' reused result buffer (see the
	// peer.Membership contract).
	gossipScratch []id.ID

	stats Stats
}

var _ peer.Membership = (*Node)(nil)

// New constructs a Cyclon node bound to env. Zero Config fields take
// defaults; invalid configurations panic.
func New(env peer.Env, cfg Config) *Node {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Node{
		env:     env,
		self:    env.Self(),
		cfg:     cfg,
		entries: make([]msg.Entry, 0, cfg.ViewSize),
		present: make(map[id.ID]int, cfg.ViewSize),
	}
}

// Join bootstraps through contact: the contact is added locally and asked to
// launch the in-degree-preserving random walks that advertise us.
func (n *Node) Join(contact id.ID) error {
	if contact == n.self || contact.IsNil() {
		return nil
	}
	if err := n.env.Send(contact, msg.Message{
		Type:    msg.Join,
		Sender:  n.self,
		Subject: n.self,
	}); err != nil {
		return err
	}
	n.insert(msg.Entry{Node: contact})
	return nil
}

// Self returns the node's identifier.
func (n *Node) Self() id.ID { return n.self }

// Stats returns a copy of the protocol counters.
func (n *Node) Stats() Stats { return n.stats }

// View returns a copy of the (identifier, age) view entries.
func (n *Node) View() []msg.Entry {
	out := make([]msg.Entry, len(n.entries))
	copy(out, n.entries)
	return out
}

// Neighbors implements peer.Membership.
func (n *Node) Neighbors() []id.ID {
	out := make([]id.ID, len(n.entries))
	for i, e := range n.entries {
		out[i] = e.Node
	}
	return out
}

// GossipTargets implements peer.Membership: fanout uniformly random distinct
// view members, excluding exclude. The result is a reused scratch buffer,
// valid until the next call (peer.Membership contract).
func (n *Node) GossipTargets(fanout int, exclude id.ID) []id.ID {
	if fanout <= 0 || len(n.entries) == 0 {
		return nil
	}
	candidates := n.gossipScratch[:0]
	for _, e := range n.entries {
		if e.Node != exclude {
			candidates = append(candidates, e.Node)
		}
	}
	n.gossipScratch = candidates
	r := n.env.Rand()
	if fanout >= len(candidates) {
		return candidates
	}
	for i := 0; i < fanout; i++ {
		j := i + r.Intn(len(candidates)-i)
		candidates[i], candidates[j] = candidates[j], candidates[i]
	}
	return candidates[:fanout]
}

// OnPeerDown implements peer.Membership. Plain Cyclon has no failure
// detector; the CyclonAcked variant purges the failed entry (paper §5).
func (n *Node) OnPeerDown(peerID id.ID) {
	if !n.cfg.DetectFailures {
		return
	}
	if n.remove(peerID) {
		n.stats.EntriesPurged++
	}
}

// OnCycle implements peer.Membership: one enhanced shuffle with the oldest
// view entry.
func (n *Node) OnCycle() {
	if len(n.entries) == 0 {
		return
	}
	// 1. Age every entry.
	for i := range n.entries {
		n.entries[i].Age++
	}
	// 2. Pick the oldest entry q and remove it: failed nodes are guaranteed
	// to age to the top and be discarded, which is Cyclon's (slow) healing
	// mechanism.
	oldest := 0
	for i, e := range n.entries {
		if e.Age > n.entries[oldest].Age {
			oldest = i
		}
	}
	q := n.entries[oldest].Node
	n.remove(q)
	// 3. Build the sample: our own fresh entry plus ShuffleLen-1 others.
	sample := n.sampleEntries(n.cfg.ShuffleLen - 1)
	out := make([]msg.Entry, 0, len(sample)+1)
	out = append(out, msg.Entry{Node: n.self})
	out = append(out, sample...)
	n.lastSent = sample
	n.stats.ShufflesInitiated++
	if err := n.env.Send(q, msg.Message{
		Type:    msg.CyclonShuffle,
		Sender:  n.self,
		Entries: out,
	}); err != nil {
		// The oldest entry was dead: Cyclon silently loses the shuffle
		// (modelling a timeout); the entry stays removed.
		n.stats.ShufflesLost++
		n.lastSent = nil
	}
}

// Deliver implements peer.Membership.
func (n *Node) Deliver(from id.ID, m *msg.Message) {
	switch m.Type {
	case msg.Join:
		n.handleJoin(m.Subject)
	case msg.CyclonJoinWalk:
		n.handleJoinWalk(from, m)
	case msg.CyclonShuffle:
		n.handleShuffle(m)
	case msg.CyclonShuffleReply:
		n.handleShuffleReply(m)
	default:
		// Not a Cyclon message; ignore.
	}
}

// --- Join protocol -----------------------------------------------------------

func (n *Node) handleJoin(joiner id.ID) {
	if joiner == n.self || joiner.IsNil() {
		return
	}
	// Launch ViewSize random walks; each replaces one remote entry with the
	// joiner, preserving the in-degree distribution (Cyclon §join).
	walks := n.cfg.ViewSize
	if len(n.entries) == 0 {
		// Degenerate bootstrap: the introducer is alone, link directly.
		n.insert(msg.Entry{Node: joiner})
		return
	}
	for i := 0; i < walks; i++ {
		target := n.entries[n.env.Rand().Intn(len(n.entries))].Node
		_ = n.env.Send(target, msg.Message{
			Type:    msg.CyclonJoinWalk,
			Sender:  n.self,
			Subject: joiner,
			TTL:     n.cfg.JoinTTL,
		})
	}
}

func (n *Node) handleJoinWalk(from id.ID, m *msg.Message) {
	joiner := m.Subject
	if joiner.IsNil() {
		return
	}
	if m.TTL > 0 && len(n.entries) > 0 {
		// Keep walking.
		target := n.entries[n.env.Rand().Intn(len(n.entries))].Node
		fwd := *m
		fwd.Sender = n.self
		fwd.TTL = m.TTL - 1
		if n.env.Send(target, fwd) == nil {
			return
		}
		// Walk target dead: terminate the walk here instead.
	}
	n.stats.JoinWalksEnded++
	if joiner == n.self {
		return
	}
	// Swap a random local entry for the joiner and gift the displaced entry
	// to the joiner so its view fills up.
	if _, dup := n.present[joiner]; dup {
		return
	}
	var displaced []msg.Entry
	if len(n.entries) >= n.cfg.ViewSize {
		victim := n.entries[n.env.Rand().Intn(len(n.entries))]
		n.remove(victim.Node)
		if victim.Node != joiner {
			displaced = []msg.Entry{victim}
		}
	}
	n.insert(msg.Entry{Node: joiner})
	_ = n.env.Send(joiner, msg.Message{
		Type:    msg.CyclonShuffleReply,
		Sender:  n.self,
		Entries: append(displaced, msg.Entry{Node: n.self}),
	})
	_ = from
}

// --- Shuffle protocol ---------------------------------------------------------

func (n *Node) handleShuffle(m *msg.Message) {
	n.stats.ShufflesAnswered++
	reply := n.sampleEntries(n.cfg.ShuffleLen)
	// Reply over a temporary channel; if the initiator died meanwhile the
	// exchange is simply lost.
	_ = n.env.Send(m.Sender, msg.Message{
		Type:    msg.CyclonShuffleReply,
		Sender:  n.self,
		Entries: reply,
	})
	n.integrate(m.Entries, reply)
}

func (n *Node) handleShuffleReply(m *msg.Message) {
	sent := n.lastSent
	n.lastSent = nil
	n.integrate(m.Entries, sent)
}

// integrate merges received entries into the view: duplicates keep the
// younger age, empty slots are filled first, then entries sent to the peer
// are replaced, then random entries (Cyclon's enhanced-shuffle rule).
// sentToPeer is consumed in slice order to keep the simulation deterministic.
func (n *Node) integrate(received, sentToPeer []msg.Entry) {
	sent := make([]id.ID, len(sentToPeer))
	for i, e := range sentToPeer {
		sent[i] = e.Node
	}
	for _, e := range received {
		if e.Node == n.self || e.Node.IsNil() {
			continue
		}
		if i, ok := n.present[e.Node]; ok {
			if e.Age < n.entries[i].Age {
				n.entries[i].Age = e.Age
			}
			continue
		}
		if len(n.entries) >= n.cfg.ViewSize {
			var evicted bool
			sent, evicted = n.evictPreferring(sent)
			if !evicted {
				continue // nothing evictable; should not happen
			}
		}
		n.insert(e)
	}
}

// evictPreferring removes one entry, preferring those in sent, falling back
// to a random victim. It returns the remaining preference list and whether
// an eviction happened.
func (n *Node) evictPreferring(sent []id.ID) ([]id.ID, bool) {
	for i, node := range sent {
		if _, ok := n.present[node]; ok {
			n.remove(node)
			return sent[i+1:], true
		}
	}
	if len(n.entries) == 0 {
		return nil, false
	}
	victim := n.entries[n.env.Rand().Intn(len(n.entries))].Node
	return nil, n.remove(victim)
}

// --- View plumbing ------------------------------------------------------------

func (n *Node) insert(e msg.Entry) {
	if e.Node == n.self || e.Node.IsNil() {
		return
	}
	if _, ok := n.present[e.Node]; ok {
		return
	}
	if len(n.entries) >= n.cfg.ViewSize {
		return
	}
	n.present[e.Node] = len(n.entries)
	n.entries = append(n.entries, e)
}

func (n *Node) remove(node id.ID) bool {
	i, ok := n.present[node]
	if !ok {
		return false
	}
	last := len(n.entries) - 1
	n.entries[i] = n.entries[last]
	n.present[n.entries[i].Node] = i
	n.entries = n.entries[:last]
	delete(n.present, node)
	return true
}

// sampleEntries returns up to k distinct random view entries (copies).
func (n *Node) sampleEntries(k int) []msg.Entry {
	if k <= 0 || len(n.entries) == 0 {
		return nil
	}
	if k > len(n.entries) {
		k = len(n.entries)
	}
	idx := n.env.Rand().Perm(len(n.entries))[:k]
	out := make([]msg.Entry, k)
	for i, j := range idx {
		out[i] = n.entries[j]
	}
	return out
}
