package netsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"hyparview/internal/cyclon"
	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/plumtree"
	"hyparview/internal/pubsub"
	"hyparview/internal/rng"
	"hyparview/internal/scamp"
	"hyparview/internal/stack"
)

// deliverGuard sits between the engine and a node's process and holds both
// sides to Deliver's contract (package peer, "Message ownership"). The process
// gets a private copy of every message; afterwards the copy must be unchanged
// (no layer wrote through m) and so must the engine's stored body, slice
// contents included (no layer wrote into a frozen slice, and the engine wrote
// nothing while the handler ran). With poison set the private copy is
// overwritten with garbage once Deliver returns, so a layer that kept the
// pointer reads garbage later and the run's outcome moves. With lend set the
// private copy's slices are the guard's own deep copies, and their contents
// are overwritten once Deliver returns, as the TCP transport's next frame
// overwrites the read buffer a payload was lent from: a layer that kept a
// received slice, rather than copying it, serves garbage later.
type deliverGuard struct {
	self   id.ID
	inner  peer.Process
	poison bool
	lend   bool

	violations []string // this node's; guards run on their node's shard
}

// poisoned is what a kept pointer reads after its Deliver returned.
var poisoned = msg.Message{
	Type: msg.Type(0xEE), Sender: 0xDEAD, Subject: 0xDEAD, TTL: 0xEE, Priority: msg.HighPriority,
	Accept: true, Round: 0xDEADBEEF, Hops: 0xEEE, Topic: 0xEEE, CostOld: 1 << 40, CostNew: 1 << 41,
	Nodes: []id.ID{0xDEAD}, Entries: []msg.Entry{{Node: 0xDEAD}}, Payload: []byte("poisoned"),
}

func (g *deliverGuard) Deliver(from id.ID, m *msg.Message) {
	stored, sum := *m, contentHash(m)
	// A fresh copy per delivery: a kept pointer keeps pointing at this one,
	// whatever is delivered next.
	priv := new(msg.Message)
	*priv = *m
	if g.lend {
		*priv = m.Clone()
	}
	handed := *priv
	g.inner.Deliver(from, priv)
	if !sameMessage(priv, &handed) || contentHash(&handed) != sum {
		g.violations = append(g.violations, fmt.Sprintf("node %v: handler wrote through m: %+v, delivered %+v", g.self, *priv, stored))
	}
	if !sameMessage(m, &stored) || contentHash(m) != sum {
		g.violations = append(g.violations, fmt.Sprintf("node %v: stored %v message changed during Deliver", g.self, stored.Type))
	}
	if g.lend {
		for i := range handed.Payload {
			handed.Payload[i] = 0xEE
		}
		for i := range handed.Nodes {
			handed.Nodes[i] = 0xDEAD
		}
		for i := range handed.Entries {
			handed.Entries[i] = msg.Entry{Node: 0xDEAD, Age: 0xEEE}
		}
	}
	if g.poison {
		*priv = poisoned
	}
}

// lendingEnv is the node's environment as a lending runtime presents it: it
// does not declare frozen bodies (peer.FrozenBodies), and Send copies what
// it is given before returning, as the TCP transport encodes a frame. It
// also hides the engine's by-reference send, so both paths reach Send.
type lendingEnv struct{ peer.Env }

func (e lendingEnv) Send(dst id.ID, m msg.Message) error { return e.Env.Send(dst, m.Clone()) }

// frozenLendingEnv is lendingEnv declaring frozen bodies all the same: an
// environment that lends but says it does not, so the ring aliases what
// the guard overwrites.
type frozenLendingEnv struct{ lendingEnv }

func (frozenLendingEnv) FrozenBodies() {}

func (g *deliverGuard) OnCycle() { g.inner.OnCycle() }

func (g *deliverGuard) OnPeerDown(p id.ID) {
	if obs, ok := g.inner.(peer.FailureObserver); ok {
		obs.OnPeerDown(p)
	}
}

// contentHash hashes what m's slices hold, which sameMessage (headers only)
// does not see.
func contentHash(m *msg.Message) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	h.Write(m.Payload)
	for _, n := range m.Nodes {
		word(uint64(n))
	}
	for _, e := range m.Entries {
		word(uint64(e.Node))
		word(uint64(e.Age))
	}
	for _, d := range m.Directory {
		word(uint64(d.Node))
		h.Write([]byte(d.Addr))
	}
	return h.Sum64()
}

// contractNode is one node of a contract run: its guard, its stack and what
// its stack delivered to the application.
type contractNode struct {
	guard   *deliverGuard
	st      stack.Stack
	got     uint64 // deliveries
	sum     uint64 // rounds, topics, hops and payload bytes delivered
	damaged uint64 // broadcasts delivered with other bytes than were sent
	round   uint64 // this node's publish counter
}

func (n *contractNode) deliver(round uint64, topic uint32, payload []byte, hops int) {
	n.got++
	n.sum += round + uint64(topic) + uint64(hops) + uint64(len(payload))
	for _, c := range payload {
		n.sum += uint64(c)
	}
	if topic == 0 && round != 0 && !bytes.Equal(payload, broadcastPayload(round)) {
		n.damaged++
	}
}

// broadcastPayload is what a contract run's plain broadcast of round
// carries.
func broadcastPayload(round uint64) []byte { return []byte{byte(round), 1, 2, 3} }

// contractVariants are the stacks the simulator hosts: the full HyParView
// stack with each upper layer, and the baselines under stack.Over.
var contractVariants = []struct {
	name    string
	latency bool // Euclidean latency model on the engine, and X-BOT's oracle
	build   func(env peer.Env, n *contractNode, oracle *Euclidean) stack.Stack
}{
	{"HyParView+flood", false, func(env peer.Env, n *contractNode, _ *Euclidean) stack.Stack {
		return stack.Build(env, stack.Config{RoundTicks: 10, Deliver: n.deliver})
	}},
	{"HyParView+Plumtree", false, func(env peer.Env, n *contractNode, _ *Euclidean) stack.Stack {
		return stack.Build(env, stack.Config{RoundTicks: 10, Plumtree: &plumtree.Config{TimerDelay: 2}, Deliver: n.deliver})
	}},
	{"HyParView+X-BOT", true, func(env peer.Env, n *contractNode, oracle *Euclidean) stack.Stack {
		return stack.Build(env, stack.Config{RoundTicks: 10, Oracle: oracle, Deliver: n.deliver})
	}},
	{"HyParView+pubsub", false, func(env peer.Env, n *contractNode, _ *Euclidean) stack.Stack {
		self := uint64(env.Self())
		return stack.Build(env, stack.Config{
			RoundTicks: 10,
			PubSub:     &pubsub.Config{MaxBatch: 4, FlushInterval: 10},
			NextRound:  func() uint64 { n.round++; return self<<32 | n.round },
			Deliver:    n.deliver,
		})
	}},
	{"Cyclon", false, func(env peer.Env, n *contractNode, _ *Euclidean) stack.Stack {
		return stack.Over(env, cyclon.New(env, cyclon.DefaultConfig()), false, stack.Config{Fanout: 4, Deliver: n.deliver})
	}},
	{"CyclonAcked", false, func(env peer.Env, n *contractNode, _ *Euclidean) stack.Stack {
		cfg := cyclon.DefaultConfig()
		cfg.DetectFailures = true
		return stack.Over(env, cyclon.New(env, cfg), true, stack.Config{Fanout: 4, Deliver: n.deliver})
	}},
	{"Scamp", false, func(env peer.Env, n *contractNode, _ *Euclidean) stack.Stack {
		return stack.Over(env, scamp.New(env, scamp.DefaultConfig()), false, stack.Config{Fanout: 4, Deliver: n.deliver})
	}},
}

// contractMode is how a contract run hands messages to its stacks.
type contractMode struct {
	poison, lend bool                    // the guards' modes (see deliverGuard)
	env          func(peer.Env) peer.Env // what the stacks run over; nil: the engine's endpoint
	lossy        bool                    // lose a quarter of the Plumtree payload pushes (see losePushes)
}

// losePushes is an engine intercept that loses every Plumtree payload frame
// whose (receiver, sender, round) hashes to 0 mod 4, so receivers repair
// those rounds by GRAFTing an announcer, whose retransmission, from another
// sender, usually gets through. It is a pure function of the message, as an
// intercept running on the shards must be.
func losePushes(node id.ID, m *msg.Message) (*msg.Message, bool) {
	if m.Type != msg.PlumtreeGossip {
		return nil, true
	}
	h := fnv.New64a()
	var b [24]byte
	binary.LittleEndian.PutUint64(b[:], uint64(node))
	binary.LittleEndian.PutUint64(b[8:], uint64(m.Sender))
	binary.LittleEndian.PutUint64(b[16:], m.Round)
	h.Write(b[:])
	return nil, h.Sum64()%4 != 0
}

// contractRun is the outcome of one contract run.
type contractRun struct {
	fingerprint string   // every node's views and counters, and the engine's
	violations  []string // every violation the guards recorded
	damaged     uint64   // broadcasts delivered with bytes other than were sent
	served      uint64   // GRAFT retransmissions served, at least
}

// runContract drives one variant through joins, periodic rounds and cycles,
// broadcasts (and publishes, where there is a router), a kill of a quarter of
// the nodes and the same again, on two shards.
func runContract(t *testing.T, variant int, mode contractMode) (run contractRun) {
	t.Helper()
	v := contractVariants[variant]
	const n = 64
	s := NewSharded(11, 2)
	var oracle *Euclidean
	if v.latency {
		oracle = NewEuclidean(11)
		s.Latency = oracle.Delay
	}
	if mode.lossy {
		s.Intercept = losePushes
	}
	nodes := make([]*contractNode, n)
	r := rng.New(5)
	for i := range nodes {
		nd := &contractNode{}
		nodes[i] = nd
		s.Add(id.ID(i+1), func(env peer.Env) peer.Process {
			self := env.Self()
			if mode.env != nil {
				env = mode.env(env)
			}
			nd.st = v.build(env, nd, oracle)
			nd.guard = &deliverGuard{self: self, inner: nd.st.Top, poison: mode.poison, lend: mode.lend}
			return nd.guard
		})
		if nd.st.Router != nil {
			if err := nd.st.Router.Subscribe(3, func(topic uint32, payload []byte, hops int) {
				nd.deliver(0, topic, payload, hops)
			}); err != nil {
				t.Fatal(err)
			}
		}
		if i > 0 {
			contact := id.ID(r.Intn(i) + 1)
			if err := nd.st.Membership.(interface{ Join(id.ID) error }).Join(contact); err != nil {
				t.Fatalf("join of %d via %v: %v", i+1, contact, err)
			}
			s.Drain()
		}
	}
	round := uint64(0)
	traffic := func() {
		s.RunFor(50) // shuffle, optimization and flush rounds
		s.RunCycles(2)
		for k := 0; k < 12; k++ {
			src, ok := s.RandomAlive(r)
			if !ok {
				t.Fatal("no live node")
			}
			nd := nodes[src-1]
			round++
			nd.st.Top.Broadcast(round, broadcastPayload(round))
			if nd.st.Router != nil {
				if err := nd.st.Router.Publish(3, []byte{byte(round), 7}); err != nil {
					t.Fatal(err)
				}
			}
			s.Drain()
		}
		s.RunFor(50)
	}
	traffic()
	for k := 0; k < n/4; k++ {
		victim, _ := s.RandomAlive(r)
		s.Fail(victim)
	}
	traffic()

	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", s.Stats())
	var got, answered, swaps uint64
	for i, nd := range nodes {
		st := nd.st
		d, dup, fwd, fails := st.Top.Counters()
		got += nd.got
		fmt.Fprintf(&b, "%d alive=%v app=%d/%d top=%d/%d/%d/%d neighbors=%v",
			i+1, s.Alive(id.ID(i+1)), nd.got, nd.sum, d, dup, fwd, fails, st.Membership.Neighbors())
		if st.Core != nil {
			fmt.Fprintf(&b, " passive=%v core=%+v", st.Core.Passive(), st.Core.Stats())
		}
		if st.XBot != nil {
			fmt.Fprintf(&b, " xbot=%+v", st.XBot.Stats())
		}
		if st.Plumtree != nil {
			ctl := st.Plumtree.Control()
			fmt.Fprintf(&b, " eager=%v plumtree=%+v", st.Plumtree.EagerPeers(), ctl)
			answered += ctl.GraftsRecvd - ctl.GraftsUnserved
			swaps += ctl.Optimizes // grafts that asked for no payload
		}
		if st.Router != nil {
			fmt.Fprintf(&b, " router=%+v", st.Router.Stats())
		}
		switch m := st.Membership.(type) {
		case *cyclon.Node:
			fmt.Fprintf(&b, " cyclon=%+v", m.Stats())
		case *scamp.Node:
			fmt.Fprintf(&b, " scamp=%+v", m.Stats())
		}
		b.WriteByte('\n')
		run.violations = append(run.violations, nd.guard.violations...)
		run.damaged += nd.damaged
	}
	if got == 0 {
		t.Fatalf("%s: no broadcast was delivered; the scenario drove nothing", v.name)
	}
	run.fingerprint = b.String()
	run.served = answered - min(answered, swaps)
	return run
}

// firstDifference returns the first line at which two fingerprints differ.
func firstDifference(a, b string) (string, string) {
	as, bs := strings.Split(a, "\n"), strings.Split(b, "\n")
	i := 0
	for i < len(as)-1 && i < len(bs)-1 && as[i] == bs[i] {
		i++
	}
	return as[i], bs[i]
}

// TestDeliverContractAcrossStacks holds every layer of every stack the
// simulator hosts to Deliver's contract: *m is read-only and not kept past
// the call. Each stack runs twice behind a deliverGuard, once with the
// private copies poisoned after every Deliver; neither run may record a
// violation, and both must end with the same views and counters.
func TestDeliverContractAcrossStacks(t *testing.T) {
	for i, v := range contractVariants {
		t.Run(v.name, func(t *testing.T) {
			clean := runContract(t, i, contractMode{})
			poisoned := runContract(t, i, contractMode{poison: true})
			if all := append(clean.violations, poisoned.violations...); len(all) > 0 {
				t.Errorf("%d contract violations; the first: %s", len(all), all[0])
			}
			if clean.fingerprint != poisoned.fingerprint {
				a, b := firstDifference(clean.fingerprint, poisoned.fingerprint)
				t.Errorf("views and counters differ once delivered copies are poisoned after Deliver: a layer keeps the pointer; first difference:\nclean:    %s\npoisoned: %s", a, b)
			}
		})
	}
}

// TestLentPayloadsSurviveRetention runs the Plumtree stack over an
// environment that lends what it delivers (lendingEnv: no frozen bodies),
// behind guards that overwrite every delivered slice once Deliver returns.
// Plumtree retains payloads to answer GRAFTs; over such an environment it
// must keep copies, so every GRAFT-served payload is still the one
// broadcast, and the run ends exactly as with nothing overwritten. The
// same guards over a lender that declares frozen bodies, so that the ring
// aliases, must see damaged payloads: that is the check's power.
func TestLentPayloadsSurviveRetention(t *testing.T) {
	variant := 0
	for contractVariants[variant].name != "HyParView+Plumtree" {
		variant++
	}
	lending := func(env peer.Env) peer.Env { return lendingEnv{env} }
	kept := runContract(t, variant, contractMode{env: lending, lossy: true})
	lent := runContract(t, variant, contractMode{lend: true, env: lending, lossy: true})
	if all := append(kept.violations, lent.violations...); len(all) > 0 {
		t.Errorf("%d contract violations; the first: %s", len(all), all[0])
	}
	if kept.served == 0 {
		t.Fatal("no GRAFT was served a payload: the scenario does not exercise retention")
	}
	if kept.damaged != 0 || lent.damaged != 0 {
		t.Errorf("%d / %d broadcasts delivered damaged without / with lending, want 0", kept.damaged, lent.damaged)
	}
	if kept.fingerprint != lent.fingerprint {
		a, b := firstDifference(kept.fingerprint, lent.fingerprint)
		t.Errorf("views and counters differ once lent slices are overwritten after Deliver: a layer keeps a lent slice; first difference:\nkept: %s\nlent: %s", a, b)
	}
	t.Logf("%d GRAFT retransmissions served, at least", kept.served)

	lying := runContract(t, variant, contractMode{lend: true, lossy: true, env: func(env peer.Env) peer.Env {
		return frozenLendingEnv{lendingEnv{env}}
	}})
	if lying.damaged == 0 {
		t.Error("an aliasing ring over lent payloads served no damaged payload: the lend guard cannot see a kept slice")
	}
}

// contractFake is a ring member that breaks Deliver's contract on purpose:
// it writes a scalar through m, writes into m's payload, or keeps m and reads
// it on the next delivery. Every message it forwards is a fresh copy.
type contractFake struct {
	env  peer.Env
	next id.ID
	mode string
	kept *msg.Message
	seen uint64
}

func (p *contractFake) Deliver(_ id.ID, m *msg.Message) {
	switch p.mode {
	case "scalar":
		m.Hops++
	case "payload":
		m.Payload[0]++
	case "keep":
		if p.kept != nil {
			p.seen += p.kept.Round
		}
		p.kept = m
	}
	if m.TTL > 0 {
		fwd := msg.Message{Type: msg.Gossip, Round: p.seen + m.Round, TTL: m.TTL - 1, Payload: []byte{1}}
		_ = p.env.Send(p.next, fwd)
	}
}

func (p *contractFake) OnCycle() {}

// TestDeliverGuardCatchesViolations is the guard's own check: each way of
// breaking the contract is caught — a write through m and a write into a
// delivered slice as violations, a kept pointer as a run that changes once
// delivered copies are poisoned.
func TestDeliverGuardCatchesViolations(t *testing.T) {
	run := func(mode string, poison bool) (seen uint64, violations []string) {
		const n = 8
		s := New(1)
		guards := make([]*deliverGuard, n)
		for i := range guards {
			next := id.ID((i+1)%n + 1)
			s.Add(id.ID(i+1), func(env peer.Env) peer.Process {
				guards[i] = &deliverGuard{self: env.Self(), inner: &contractFake{env: env, next: next, mode: mode}, poison: poison}
				return guards[i]
			})
		}
		for i := 0; i < 3; i++ {
			_ = s.Inject(0, id.ID(i+1), msg.Message{Type: msg.Gossip, Round: uint64(i), TTL: 20, Payload: []byte{1}})
			s.Drain()
		}
		for _, g := range guards {
			seen += g.inner.(*contractFake).seen
			violations = append(violations, g.violations...)
		}
		return seen, violations
	}
	for _, mode := range []string{"scalar", "payload"} {
		if _, violations := run(mode, false); len(violations) == 0 {
			t.Errorf("%s: a handler writing through m was not flagged", mode)
		}
	}
	clean, violations := run("keep", false)
	poisoned, _ := run("keep", true)
	if len(violations) != 0 {
		t.Errorf("keep: flagged as a write: %v", violations)
	}
	if clean == poisoned {
		t.Error("keep: a handler that keeps m runs the same with poisoned copies; the poison check cannot see it")
	}
}
