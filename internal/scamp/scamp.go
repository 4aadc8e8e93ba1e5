// Package scamp implements the SCAMP membership protocol (Ganesh, Kermarrec,
// Massoulié 2001/2003), the reactive baseline of the HyParView paper's
// evaluation.
//
// SCAMP is (mostly) reactive: partial views change in response to
// subscriptions. A new subscription is forwarded through the overlay and each
// node keeps the subscriber with probability 1/(1+|PartialView|), which makes
// view sizes converge around log(n)+c without any node knowing n. Nodes also
// keep an InView (who has me in their PartialView), send heartbeats to detect
// isolation, and hold subscriptions under a lease that forces periodic
// re-subscription.
package scamp

import (
	"fmt"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/view"
)

// Config carries the SCAMP parameters.
type Config struct {
	// C is the fault-tolerance parameter: the number of extra subscription
	// copies forwarded on top of one per PartialView member. The paper uses
	// c=4 (mean view size ≈ 34 at n=10,000).
	C int

	// ForwardTTL bounds subscription forwarding hops as a termination
	// guard; when it expires the subscription is kept unconditionally. The
	// original protocol forwards indefinitely (keeping happens with
	// probability 1 eventually); a generous bound changes nothing
	// observable and protects the simulator.
	ForwardTTL uint8

	// HeartbeatEvery is the period, in membership cycles, of heartbeats
	// sent to PartialView members. Zero disables heartbeats.
	HeartbeatEvery int

	// IsolationTimeout is the number of cycles without any received
	// heartbeat after which a node assumes isolation and re-subscribes.
	// Zero disables the check.
	IsolationTimeout int

	// LeaseCycles is the subscription lease: every LeaseCycles cycles
	// (staggered per node) the node re-subscribes through a random
	// PartialView member. Zero disables leases. The paper notes lease time
	// is "typically high to preserve stability", and its failure
	// experiments run before any lease expires.
	LeaseCycles int

	// MaxView bounds the PartialView container. SCAMP views are unbounded
	// by design; the bound is a defensive capacity for the container and
	// defaults to 1024.
	MaxView int
}

// DefaultConfig returns the paper's §5.1 SCAMP configuration: c=4,
// heartbeats every 10 cycles with a 30-cycle isolation timeout, leases
// disabled (the paper's runs end before lease expiry).
func DefaultConfig() Config {
	return Config{
		C:                4,
		ForwardTTL:       64,
		HeartbeatEvery:   10,
		IsolationTimeout: 30,
	}
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.C < 0:
		return fmt.Errorf("scamp: C must be non-negative, got %d", c.C)
	case c.ForwardTTL == 0:
		return fmt.Errorf("scamp: ForwardTTL must be positive")
	case c.MaxView <= 0:
		return fmt.Errorf("scamp: MaxView must be positive, got %d", c.MaxView)
	case c.IsolationTimeout > 0 && c.HeartbeatEvery <= 0:
		return fmt.Errorf("scamp: IsolationTimeout requires heartbeats")
	case c.HeartbeatEvery > 0 && c.IsolationTimeout > 0 &&
		c.IsolationTimeout <= c.HeartbeatEvery:
		return fmt.Errorf("scamp: IsolationTimeout (%d) must exceed HeartbeatEvery (%d)",
			c.IsolationTimeout, c.HeartbeatEvery)
	}
	return nil
}

// WithDefaults fills zero-valued fields from DefaultConfig.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.C == 0 {
		c.C = d.C
	}
	if c.ForwardTTL == 0 {
		c.ForwardTTL = d.ForwardTTL
	}
	if c.MaxView == 0 {
		c.MaxView = 1024
	}
	return c
}

// Stats counts protocol events on one node.
type Stats struct {
	SubscriptionsSeen uint64 // forwarded subscriptions received
	SubscriptionsKept uint64
	Resubscriptions   uint64 // lease renewals + isolation recoveries
	IsolationEvents   uint64
	HeartbeatsSent    uint64
	Unsubscriptions   uint64
}

// Node is one SCAMP protocol instance. Not safe for concurrent use.
type Node struct {
	env  peer.Env
	self id.ID
	cfg  Config

	partial *view.View // out-links: gossip targets
	inView  *view.View // in-links: who keeps us

	cycle       int
	leaseOffset int
	lastHeard   int // cycle at which we last received a heartbeat

	// gossipScratch backs GossipTargets' reused result buffer (see the
	// peer.Membership contract).
	gossipScratch []id.ID

	stats Stats
}

var _ peer.Membership = (*Node)(nil)

// New constructs a SCAMP node bound to env. Zero Config fields take
// defaults; invalid configurations panic.
func New(env peer.Env, cfg Config) *Node {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Node{
		env:     env,
		self:    env.Self(),
		cfg:     cfg,
		partial: view.New(cfg.MaxView),
		inView:  view.New(cfg.MaxView),
	}
	if cfg.LeaseCycles > 0 {
		n.leaseOffset = env.Rand().Intn(cfg.LeaseCycles)
	}
	return n
}

// Join subscribes through contact.
func (n *Node) Join(contact id.ID) error {
	if contact == n.self || contact.IsNil() {
		return nil
	}
	if err := n.env.Send(contact, msg.Message{
		Type:    msg.ScampSubscribe,
		Sender:  n.self,
		Subject: n.self,
	}); err != nil {
		return err
	}
	// The new node starts with the contact in its PartialView.
	n.partial.Add(contact)
	return nil
}

// Leave gracefully unsubscribes (SCAMP unsubscription): every InView member
// is asked to replace us with one of our PartialView members, preserving
// their out-degree.
func (n *Node) Leave() {
	n.stats.Unsubscriptions++
	replacements := n.partial.Members()
	i := 0
	n.inView.ForEach(func(watcher id.ID) {
		var repl []id.ID
		if len(replacements) > 0 {
			repl = []id.ID{replacements[i%len(replacements)]}
			i++
		}
		_ = n.env.Send(watcher, msg.Message{
			Type:    msg.ScampUnsubscribe,
			Sender:  n.self,
			Subject: n.self,
			Nodes:   repl,
		})
	})
	n.partial.Clear()
	n.inView.Clear()
}

// Self returns the node's identifier.
func (n *Node) Self() id.ID { return n.self }

// Stats returns a copy of the protocol counters.
func (n *Node) Stats() Stats { return n.stats }

// PartialView returns a copy of the out-link view.
func (n *Node) PartialView() []id.ID { return n.partial.Members() }

// InView returns a copy of the in-link view.
func (n *Node) InView() []id.ID { return n.inView.Members() }

// Neighbors implements peer.Membership.
func (n *Node) Neighbors() []id.ID { return n.partial.Members() }

// GossipTargets implements peer.Membership: fanout random PartialView
// members, excluding exclude. The result is a reused scratch buffer, valid
// until the next call (peer.Membership contract). The in-place filter below
// is why the sample lands in scratch rather than a frozen message slice.
func (n *Node) GossipTargets(fanout int, exclude id.ID) []id.ID {
	if fanout <= 0 || n.partial.Empty() {
		return nil
	}
	sample := n.partial.SampleInto(n.env.Rand(), fanout+1, n.gossipScratch[:0])
	n.gossipScratch = sample
	out := sample[:0]
	for _, m := range sample {
		if m != exclude {
			out = append(out, m)
		}
	}
	if len(out) > fanout {
		out = out[:fanout]
	}
	return out
}

// OnPeerDown implements peer.Membership. SCAMP, as evaluated in the paper,
// has no send-failure detector: gossip omissions are silent.
func (n *Node) OnPeerDown(id.ID) {}

// OnCycle implements peer.Membership: heartbeats, isolation detection and
// lease renewal.
func (n *Node) OnCycle() {
	n.cycle++
	hb := n.cfg.HeartbeatEvery
	if hb > 0 && n.cycle%hb == 0 {
		n.partial.ForEach(func(m id.ID) {
			n.stats.HeartbeatsSent++
			_ = n.env.Send(m, msg.Message{Type: msg.ScampHeartbeat, Sender: n.self})
		})
	}
	if t := n.cfg.IsolationTimeout; t > 0 && n.cycle-n.lastHeard > t {
		// No heartbeat for too long: we are (in-)isolated. Rejoin through a
		// PartialView member (paper §2.4).
		n.stats.IsolationEvents++
		n.lastHeard = n.cycle
		n.resubscribe()
	}
	if l := n.cfg.LeaseCycles; l > 0 && (n.cycle+n.leaseOffset)%l == 0 {
		n.resubscribe()
	}
}

// resubscribe re-issues a subscription through a random PartialView member.
func (n *Node) resubscribe() {
	target, ok := n.partial.Random(n.env.Rand())
	if !ok {
		return
	}
	n.stats.Resubscriptions++
	_ = n.env.Send(target, msg.Message{
		Type:    msg.ScampSubscribe,
		Sender:  n.self,
		Subject: n.self,
	})
}

// Deliver implements peer.Membership.
func (n *Node) Deliver(from id.ID, m *msg.Message) {
	switch m.Type {
	case msg.ScampSubscribe:
		n.handleSubscribe(m.Subject)
	case msg.ScampForwardSub:
		n.handleForwardSub(m)
	case msg.ScampKept:
		n.inView.Add(m.Sender)
	case msg.ScampHeartbeat:
		n.lastHeard = n.cycle
	case msg.ScampUnsubscribe:
		n.handleUnsubscribe(m)
	default:
		_ = from
	}
}

// handleSubscribe runs at the contact node: one forwarded copy per
// PartialView member plus C extra copies to random members.
func (n *Node) handleSubscribe(subscriber id.ID) {
	if subscriber == n.self || subscriber.IsNil() {
		return
	}
	if n.partial.Empty() {
		// Degenerate bootstrap: contact is alone; keep directly.
		n.keep(subscriber)
		return
	}
	fwd := msg.Message{
		Type:    msg.ScampForwardSub,
		Sender:  n.self,
		Subject: subscriber,
		TTL:     n.cfg.ForwardTTL,
	}
	n.partial.ForEach(func(m id.ID) {
		_ = n.env.Send(m, fwd)
	})
	for i := 0; i < n.cfg.C; i++ {
		if target, ok := n.partial.Random(n.env.Rand()); ok {
			_ = n.env.Send(target, fwd)
		}
	}
}

func (n *Node) handleForwardSub(m *msg.Message) {
	subscriber := m.Subject
	if subscriber.IsNil() || subscriber == n.self {
		return
	}
	n.stats.SubscriptionsSeen++
	// Keep with probability 1/(1+|PartialView|) unless already present.
	p := 1.0 / float64(1+n.partial.Len())
	if !n.partial.Contains(subscriber) && n.env.Rand().Float64() < p {
		n.keep(subscriber)
		return
	}
	if m.TTL <= 1 || n.partial.Empty() {
		// Termination guard: keep unconditionally rather than dropping a
		// subscription on the floor.
		if !n.partial.Contains(subscriber) {
			n.keep(subscriber)
		}
		return
	}
	target, ok := n.partial.Random(n.env.Rand())
	if !ok {
		return
	}
	fwd := *m
	fwd.Sender = n.self
	fwd.TTL = m.TTL - 1
	_ = n.env.Send(target, fwd)
}

// keep adds subscriber to the PartialView and notifies it for InView
// bookkeeping.
func (n *Node) keep(subscriber id.ID) {
	if !n.partial.Add(subscriber) {
		return
	}
	n.stats.SubscriptionsKept++
	_ = n.env.Send(subscriber, msg.Message{Type: msg.ScampKept, Sender: n.self})
}

func (n *Node) handleUnsubscribe(m *msg.Message) {
	leaver := m.Subject
	if !n.partial.Remove(leaver) {
		return
	}
	// Preserve out-degree by adopting the replacement the leaver suggested.
	for _, repl := range m.Nodes {
		if repl != n.self && !repl.IsNil() && !n.partial.Contains(repl) {
			if n.partial.Add(repl) {
				_ = n.env.Send(repl, msg.Message{Type: msg.ScampKept, Sender: n.self})
			}
			break
		}
	}
	n.inView.Remove(leaver)
}
