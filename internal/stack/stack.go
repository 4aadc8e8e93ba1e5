// Package stack assembles a node's protocol stack: HyParView core → X-BOT
// optimizer → flood|Plumtree broadcast → topic pub/sub. It is the one place
// that knows how the layers are wired — construction order, the two-phase
// router New/Bind, which layers report send failures to the membership, how
// the optimizer's cadence follows the shuffle period — so the two runtimes
// (sim.Cluster over netsim, transport.Agent over TCP) host byte-for-byte the
// same stack and differ only in the peer.Env they hand it.
package stack

import (
	"hyparview/internal/core"
	"hyparview/internal/gossip"
	"hyparview/internal/peer"
	"hyparview/internal/plumtree"
	"hyparview/internal/pubsub"
	"hyparview/internal/xbot"
)

// Config describes the stack to assemble. Zero fields of the per-layer
// configurations take each protocol's defaults. Core, RoundTicks, Oracle and
// XBot are read by Build only; Over takes a membership built by its caller.
type Config struct {
	Core core.Config
	// RoundTicks is the membership round period ΔT in scheduler ticks, zero
	// when rounds are driven by OnCycle calls. It is the default for
	// Core.ShuffleInterval and the clock XBot.Period counts against.
	RoundTicks uint64
	// Oracle, when non-nil, layers the X-BOT optimizer over the core,
	// measuring links with it.
	Oracle xbot.Oracle
	XBot   xbot.Config

	// Plumtree, when set, replaces the paper's gossip broadcast — flooding
	// over HyParView (§4.1), Fanout random view members per hop under Over —
	// with Plumtree epidemic broadcast trees built from a copy of it, whose
	// ReportPeerDown is forced on wherever gossip would report too.
	Plumtree *plumtree.Config
	Fanout   int
	// PubSub, when set, wraps the broadcast layer in a pubsub.Router built
	// from a copy of it: a nil NextRound takes the one below, a nil Fallback
	// takes Deliver, so untagged broadcasts keep reaching the runtime through
	// the wrapped stack.
	PubSub    *pubsub.Config
	NextRound func() uint64
	// Deliver receives every locally delivered broadcast. May be nil.
	Deliver gossip.Delivery
}

// CoreConfig returns the HyParView configuration Build hands to core.New:
// Core with RoundTicks as the default shuffle interval and the paper's
// defaults filled in. Build panics if it does not Validate; a runtime
// configured from outside the program checks before acquiring resources.
func (c Config) CoreConfig() core.Config {
	cc := c.Core
	if cc.ShuffleInterval == 0 {
		cc.ShuffleInterval = c.RoundTicks
	}
	return cc.WithDefaults()
}

// Stack is one node's assembled layers. The runtime delivers network traffic,
// scheduler ticks and peer-down notifications into Top; each layer consumes
// its own message kinds and hands the rest down. Typed fields are nil for
// layers the configuration left out.
type Stack struct {
	Core       *core.Node      // HyParView; nil over a baseline membership
	XBot       *xbot.Node      // the optimizer, when Config.Oracle is set
	Membership peer.Membership // what the broadcast layer sits on: XBot, else Core, else the baseline
	Plumtree   *plumtree.Node  // the broadcast layer in Plumtree mode
	Router     *pubsub.Router  // the pub/sub layer, when Config.PubSub is set
	Top        gossip.Broadcaster
}

// Build assembles the full HyParView stack on env. Broadcast sends double as
// the failure detector (§4.1), so either broadcast layer reports failed sends
// to the membership.
func Build(env peer.Env, cfg Config) Stack {
	s := Stack{Core: core.New(env, cfg.CoreConfig())}
	s.Membership = s.Core
	if cfg.Oracle != nil {
		s.XBot = xbot.New(env, s.Core, cfg.XBot.DeriveInterval(cfg.RoundTicks), cfg.Oracle)
		s.Membership = s.XBot
	}
	s.broadcast(env, gossip.Config{Mode: gossip.Flood, ReportPeerDown: true}, cfg)
	return s
}

// Over assembles cfg's broadcast and pub/sub layers over a peer-sampling
// membership the caller built (the Cyclon and Scamp baselines). With acked
// sends (CyclonAcked) failed ones are reported to the membership; otherwise
// gossip is fire-and-forget and only an explicit Plumtree.ReportPeerDown
// reports them.
func Over(env peer.Env, m peer.Membership, acked bool, cfg Config) Stack {
	s := Stack{Membership: m}
	s.broadcast(env, gossip.Config{Mode: gossip.Fanout, Fanout: cfg.Fanout, ReportPeerDown: acked}, cfg)
	return s
}

// broadcast stacks the broadcast layer and the router over s.Membership. The
// order — router New, broadcaster, router Bind — is fixed: constructors
// register periodic rounds on env, and seeded runs replay them in order.
func (s *Stack) broadcast(env peer.Env, gcfg gossip.Config, cfg Config) {
	deliver := cfg.Deliver
	if cfg.PubSub != nil {
		// The broadcaster below delivers into the router; Bind closes the loop.
		rcfg := *cfg.PubSub
		if rcfg.NextRound == nil {
			rcfg.NextRound = cfg.NextRound
		}
		if rcfg.Fallback == nil {
			rcfg.Fallback = deliver
		}
		s.Router = pubsub.New(rcfg)
		deliver = s.Router.OnBroadcast
	}
	if cfg.Plumtree != nil {
		pcfg := *cfg.Plumtree
		pcfg.ReportPeerDown = pcfg.ReportPeerDown || gcfg.ReportPeerDown
		s.Plumtree = plumtree.New(env, s.Membership, pcfg, deliver)
		s.Top = s.Plumtree
	} else {
		s.Top = gossip.New(env, s.Membership, gcfg, deliver)
	}
	if s.Router != nil {
		s.Router.Bind(env, s.Top)
		s.Top = s.Router
	}
}
