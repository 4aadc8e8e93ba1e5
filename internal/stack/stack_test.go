package stack

import (
	"fmt"
	"testing"

	"hyparview/internal/core"
	"hyparview/internal/cyclon"
	"hyparview/internal/gossip"
	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/peer/peertest"
	"hyparview/internal/plumtree"
	"hyparview/internal/pubsub"
	"hyparview/internal/rng"
)

// fakeEnv is a one-node environment: sends are recorded, peers marked down
// refuse them, and time is the test's to advance.
type fakeEnv struct {
	peertest.ManualScheduler
	rand *rng.Rand
	down map[id.ID]bool
	sent []msg.Message
}

var _ peer.Env = (*fakeEnv)(nil)

const self, neighbor id.ID = 1, 2

func (e *fakeEnv) Self() id.ID     { return self }
func (e *fakeEnv) Rand() *rng.Rand { return e.rand }
func (e *fakeEnv) Watch(id.ID)     {}
func (e *fakeEnv) Unwatch(id.ID)   {}

func (e *fakeEnv) Probe(dst id.ID) error {
	if e.down[dst] {
		return fmt.Errorf("probe: %w", peer.ErrPeerDown)
	}
	return nil
}

func (e *fakeEnv) Send(dst id.ID, m msg.Message) error {
	if e.down[dst] {
		return fmt.Errorf("send: %w", peer.ErrPeerDown)
	}
	e.sent = append(e.sent, m)
	return nil
}

// sentOfType counts recorded sends of one message type.
func (e *fakeEnv) sentOfType(ty msg.Type) int {
	n := 0
	for _, m := range e.sent {
		if m.Type == ty {
			n++
		}
	}
	return n
}

// baseline wraps a Cyclon node and records the peer-down reports the
// broadcast layer makes to it.
type baseline struct {
	*cyclon.Node
	downs []id.ID
}

func (b *baseline) OnPeerDown(p id.ID) {
	b.downs = append(b.downs, p)
	b.Node.OnPeerDown(p)
}

// countingOracle is an X-BOT cost oracle that counts its queries: an
// optimization round on a full active view ranks the active links first.
type countingOracle struct{ queries int }

func (o *countingOracle) Cost(a, b id.ID) uint64 {
	o.queries++
	return uint64(a) + uint64(b)
}

// membershipKind is the bottom of the stack under test.
type membershipKind int

const (
	hyParView membershipKind = iota
	hyParViewXBot
	cyclonPlain // fire-and-forget gossip: failed sends are not reported
	cyclonAcked // acknowledged sends: failed sends are reported
)

func (k membershipKind) String() string {
	return [...]string{"HyParView", "HyParView+XBot", "Cyclon", "CyclonAcked"}[k]
}

// TestAssembly runs every combination of membership, broadcast layer and
// pub/sub through one scenario — join a neighbor, broadcast, publish, let the
// registered rounds fire, lose the neighbor — and asserts what the assembler
// promises: the typed fields and the Top → … → Membership chain match the
// configuration, periodic rounds are registered in construction order and
// each reaches its layer from Top, failed sends reach the membership exactly
// when the layering says they should, and plain broadcasts reach Deliver
// through a pub/sub-wrapped stack.
func TestAssembly(t *testing.T) {
	const roundTicks = 10
	for _, kind := range []membershipKind{hyParView, hyParViewXBot, cyclonPlain, cyclonAcked} {
		for _, tree := range []bool{false, true} {
			for _, withPubSub := range []bool{false, true} {
				name := fmt.Sprintf("%v/plumtree=%v/pubsub=%v", kind, tree, withPubSub)
				t.Run(name, func(t *testing.T) {
					env := &fakeEnv{rand: rng.New(1), down: make(map[id.ID]bool)}
					var delivered []uint64
					var allocated uint64
					oracle := &countingOracle{}
					cfg := Config{
						// A one-slot active view is full after one join, which is
						// what lets an X-BOT round get as far as the oracle.
						Core:       core.Config{ActiveSize: 1, ShuffleKa: 1},
						RoundTicks: roundTicks,
						Fanout:     4,
						NextRound:  func() uint64 { allocated++; return 1000 + allocated },
						Deliver: func(round uint64, _ uint32, _ []byte, _ int) {
							delivered = append(delivered, round)
						},
					}
					if kind == hyParViewXBot {
						cfg.Oracle = oracle
					}
					if tree {
						cfg.Plumtree = &plumtree.Config{}
					}
					if withPubSub {
						cfg.PubSub = &pubsub.Config{MaxBatch: 8, FlushInterval: roundTicks}
					}
					if err := cfg.CoreConfig().Validate(); err != nil {
						t.Fatal(err)
					}

					var s Stack
					var base *baseline
					switch kind {
					case hyParView, hyParViewXBot:
						s = Build(env, cfg)
					default:
						acked := kind == cyclonAcked
						base = &baseline{Node: cyclon.New(env, cyclon.Config{DetectFailures: acked})}
						s = Over(env, base, acked, cfg)
					}

					// (a) The typed fields say what was built, and the chain from
					// Top ends at Membership.
					if got, want := s.Core != nil, base == nil; got != want {
						t.Errorf("Core set = %v, want %v", got, want)
					}
					if got, want := s.XBot != nil, kind == hyParViewXBot; got != want {
						t.Errorf("XBot set = %v, want %v", got, want)
					}
					if got, want := s.Plumtree != nil, tree; got != want {
						t.Errorf("Plumtree set = %v, want %v", got, want)
					}
					if got, want := s.Router != nil, withPubSub; got != want {
						t.Errorf("Router set = %v, want %v", got, want)
					}
					var wantMember peer.Membership
					switch {
					case base != nil:
						wantMember = base
					case s.XBot != nil:
						wantMember = s.XBot
						if s.XBot.Inner() != s.Core {
							t.Error("XBot does not wrap Core")
						}
					default:
						wantMember = s.Core
					}
					if s.Membership != wantMember {
						t.Errorf("Membership is %T, want %T", s.Membership, wantMember)
					}
					if s.Top.Membership() != wantMember {
						t.Errorf("Top's chain ends at %T, want %T", s.Top.Membership(), wantMember)
					}
					switch {
					case withPubSub:
						if s.Top != gossip.Broadcaster(s.Router) {
							t.Errorf("Top is %T, want the router", s.Top)
						}
					case tree:
						if s.Top != gossip.Broadcaster(s.Plumtree) {
							t.Errorf("Top is %T, want the Plumtree node", s.Top)
						}
					default:
						if _, ok := s.Top.(*gossip.Node); !ok {
							t.Errorf("Top is %T, want *gossip.Node", s.Top)
						}
					}

					if err := s.Membership.(interface{ Join(id.ID) error }).Join(neighbor); err != nil {
						t.Fatal(err)
					}

					// (d) A plain broadcast is delivered locally — through the
					// router's Fallback when there is one — and pushed to the
					// neighbor by the broadcast layer the mode selected.
					s.Top.Broadcast(7, []byte("x"))
					if len(delivered) != 1 || delivered[0] != 7 {
						t.Errorf("deliveries after Broadcast(7) = %v, want [7]", delivered)
					}
					payloadType := msg.Gossip
					if tree {
						payloadType = msg.PlumtreeGossip
					}
					if got := env.sentOfType(payloadType); got != 1 {
						t.Errorf("%v messages sent = %d, want 1", payloadType, got)
					}

					// (c) The layers registered their periodic rounds in
					// construction order — core, X-BOT, router Bind — and each
					// round, delivered at Top, reaches the layer that owns it.
					if withPubSub {
						if err := s.Router.Publish(5, []byte("p")); err != nil {
							t.Fatal(err)
						}
						if allocated != 0 {
							t.Fatalf("a buffered publish allocated %d rounds", allocated)
						}
					}
					var wantTicks []uint64
					if s.Core != nil {
						wantTicks = append(wantTicks, msg.TickShuffle)
					}
					if s.XBot != nil {
						wantTicks = append(wantTicks, msg.TickXBotOptimize)
					}
					if withPubSub {
						wantTicks = append(wantTicks, msg.TickPubSubFlush)
					}
					due := env.Advance(roundTicks)
					var gotTicks []uint64
					for _, m := range due {
						gotTicks = append(gotTicks, m.Round)
						s.Top.Deliver(self, &m)
					}
					if fmt.Sprint(gotTicks) != fmt.Sprint(wantTicks) {
						t.Errorf("ticks due after one round = %v, want %v", gotTicks, wantTicks)
					}
					if s.Core != nil {
						if got := s.Core.Stats().ShufflesInitiated; got != 1 {
							t.Errorf("shuffles initiated = %d, want 1", got)
						}
					}
					if got, want := oracle.queries > 0, s.XBot != nil; got != want {
						t.Errorf("oracle queried = %v (%d), want %v", got, oracle.queries, want)
					}
					if withPubSub {
						if got := s.Router.Stats().Flushes; got != 1 {
							t.Errorf("router flushes = %d, want 1", got)
						}
						// The published round drew its identifier from the stack's
						// NextRound, the default for a nil PubSub.NextRound.
						if allocated != 1 {
							t.Errorf("rounds allocated = %d, want 1", allocated)
						}
					}

					// (b) The neighbor dies; the next broadcast's failed send is
					// reported to the membership exactly where sends double as
					// the failure detector.
					env.down[neighbor] = true
					s.Top.Broadcast(8, []byte("y"))
					wantReport := kind != cyclonPlain
					var reported bool
					if base != nil {
						reported = len(base.downs) == 1 && base.downs[0] == neighbor
						if !reported && len(base.downs) != 0 {
							t.Errorf("peer-down reports = %v", base.downs)
						}
					} else {
						reported = s.Core.Stats().PeerFailures == 1
					}
					if reported != wantReport {
						t.Errorf("failed send reported to membership = %v, want %v", reported, wantReport)
					}
				})
			}
		}
	}
}

// TestPlumtreeReportOptIn: over a fire-and-forget baseline Plumtree reports
// failed sends only when its own configuration asks for it.
func TestPlumtreeReportOptIn(t *testing.T) {
	env := &fakeEnv{rand: rng.New(1), down: map[id.ID]bool{}}
	base := &baseline{Node: cyclon.New(env, cyclon.Config{})}
	s := Over(env, base, false, Config{Plumtree: &plumtree.Config{ReportPeerDown: true}})
	if err := base.Join(neighbor); err != nil {
		t.Fatal(err)
	}
	env.down[neighbor] = true
	s.Top.Broadcast(1, nil)
	if len(base.downs) != 1 {
		t.Errorf("peer-down reports = %v, want one", base.downs)
	}
}

// TestCoreConfigFollowsRoundTicks: RoundTicks is the default shuffle
// interval, never an override.
func TestCoreConfigFollowsRoundTicks(t *testing.T) {
	if got := (Config{RoundTicks: 50}).CoreConfig().ShuffleInterval; got != 50 {
		t.Errorf("ShuffleInterval = %d, want RoundTicks 50", got)
	}
	explicit := Config{RoundTicks: 50, Core: core.Config{ShuffleInterval: 7}}
	if got := explicit.CoreConfig().ShuffleInterval; got != 7 {
		t.Errorf("ShuffleInterval = %d, want the explicit 7", got)
	}
}
