package xbot

import (
	"fmt"
	"testing"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/peer/peertest"
	"hyparview/internal/rng"
)

// mapOracle is a scriptable symmetric cost oracle.
type mapOracle map[[2]id.ID]uint64

func (o mapOracle) set(a, b id.ID, c uint64) {
	if a > b {
		a, b = b, a
	}
	o[[2]id.ID{a, b}] = c
}

func (o mapOracle) Cost(a, b id.ID) uint64 {
	if a > b {
		a, b = b, a
	}
	return o[[2]id.ID{a, b}]
}

// fakeEnv is a scriptable peer.Env recording sends.
type fakeEnv struct {
	peertest.ManualScheduler
	self id.ID
	rand *rng.Rand
	down map[id.ID]bool
	sent []sentMsg
}

type sentMsg struct {
	to id.ID
	m  msg.Message
}

func newFakeEnv(self id.ID) *fakeEnv {
	return &fakeEnv{self: self, rand: rng.New(uint64(self) + 77), down: map[id.ID]bool{}}
}

func (e *fakeEnv) Self() id.ID     { return e.self }
func (e *fakeEnv) Rand() *rng.Rand { return e.rand }
func (e *fakeEnv) Send(dst id.ID, m msg.Message) error {
	if e.down[dst] {
		return fmt.Errorf("send: %w", peer.ErrPeerDown)
	}
	e.sent = append(e.sent, sentMsg{to: dst, m: m})
	return nil
}
func (e *fakeEnv) Probe(dst id.ID) error {
	if e.down[dst] {
		return fmt.Errorf("probe: %w", peer.ErrPeerDown)
	}
	return nil
}
func (e *fakeEnv) Watch(id.ID)   {}
func (e *fakeEnv) Unwatch(id.ID) {}

func (e *fakeEnv) take() []sentMsg {
	out := e.sent
	e.sent = nil
	return out
}

func (e *fakeEnv) lastOfType(t msg.Type) (sentMsg, bool) {
	for i := len(e.sent) - 1; i >= 0; i-- {
		if e.sent[i].m.Type == t {
			return e.sent[i], true
		}
	}
	return sentMsg{}, false
}

// stubMembership is a controllable xbot.Membership.
type stubMembership struct {
	cap      int
	active   []id.ID
	passive  []id.ID
	promoted []id.ID
	demoted  []id.ID
}

func (s *stubMembership) Deliver(id.ID, *msg.Message)      {}
func (s *stubMembership) OnCycle()                         {}
func (s *stubMembership) OnPeerDown(id.ID)                 {}
func (s *stubMembership) GossipTargets(int, id.ID) []id.ID { return nil }
func (s *stubMembership) Neighbors() []id.ID               { return append([]id.ID(nil), s.active...) }
func (s *stubMembership) Active() []id.ID                  { return append([]id.ID(nil), s.active...) }
func (s *stubMembership) Passive() []id.ID                 { return append([]id.ID(nil), s.passive...) }
func (s *stubMembership) ActiveFull() bool                 { return len(s.active) >= s.cap }

func (s *stubMembership) ActiveContains(p id.ID) bool {
	for _, a := range s.active {
		if a == p {
			return true
		}
	}
	return false
}

func (s *stubMembership) PromoteActive(p id.ID) bool {
	if s.ActiveContains(p) {
		return false
	}
	s.active = append(s.active, p)
	s.promoted = append(s.promoted, p)
	for i, q := range s.passive {
		if q == p {
			s.passive = append(s.passive[:i], s.passive[i+1:]...)
			break
		}
	}
	return true
}

func (s *stubMembership) DemoteActive(p id.ID) bool {
	for i, a := range s.active {
		if a == p {
			s.active = append(s.active[:i], s.active[i+1:]...)
			s.demoted = append(s.demoted, p)
			s.passive = append(s.passive, p)
			return true
		}
	}
	return false
}

func newTestNode(self id.ID, cap int, cfg Config, oracle Oracle) (*Node, *stubMembership, *fakeEnv) {
	env := newFakeEnv(self)
	m := &stubMembership{cap: cap}
	return New(env, m, cfg, oracle), m, env
}

// partialOracle is a mapOracle that reports some local links as unmeasured,
// exercising the CostKnower extension a live RTT oracle implements.
type partialOracle struct {
	mapOracle
	unknown map[id.ID]bool // peers whose local link has no estimate yet
}

func (o partialOracle) KnownCost(a, b id.ID) bool {
	return !o.unknown[a] && !o.unknown[b]
}

// TestInitiatorSkipsUnmeasuredLinks: a link without a cost estimate must
// never be ranked as the replaceable "worst" link — the optimizer would be
// evicting on no evidence. Here the only expensive link is unmeasured, the
// rest show no gain, so no attempt starts.
func TestInitiatorSkipsUnmeasuredLinks(t *testing.T) {
	oracle := partialOracle{mapOracle: mapOracle{}, unknown: map[id.ID]bool{3: true}}
	oracle.set(1, 2, 10)  // measured, cheap
	oracle.set(1, 3, 100) // would be the evictee, but unmeasured
	oracle.set(1, 4, 20)  // candidate costlier than every measured link
	n, m, env := newTestNode(1, 2, Config{ProtectTopK: 0}, oracle)
	n.cfg.ProtectTopK = 0
	m.active = []id.ID{2, 3}
	m.passive = []id.ID{4}

	n.OnCycle()
	if sent, ok := env.lastOfType(msg.XBotOptimization); ok {
		t.Fatalf("OPTIMIZATION %+v proposed against an unmeasured link", sent.m)
	}
	if n.Stats().Attempts != 0 {
		t.Errorf("attempts = %d, want 0", n.Stats().Attempts)
	}
}

// TestDisconnectedRejectsUnmeasuredSwap: d must reject a REPLACE when either
// of its locally measured terms (c–d, d–o) has no estimate, even though the
// sentinel arithmetic would otherwise accept.
func TestDisconnectedRejectsUnmeasuredSwap(t *testing.T) {
	// Same geometry as TestDisconnectedAcceptsStrictImprovement (60 < 180,
	// would accept) except the d–o link is unmeasured.
	oracle := partialOracle{mapOracle: mapOracle{}, unknown: map[id.ID]bool{7: true}}
	oracle.set(8, 5, 80) // c-d, measured
	oracle.set(8, 7, 50) // d-o, present but flagged unmeasured
	n, m, env := newTestNode(8, 2, Config{ProtectTopK: 0}, oracle)
	n.cfg.ProtectTopK = 0
	m.active = []id.ID{5, 6}
	n.Deliver(5, &msg.Message{
		Type: msg.XBotReplace, Sender: 5, Subject: 7, Nodes: []id.ID{9},
		CostOld: 100, CostNew: 10,
	})
	if _, ok := env.lastOfType(msg.XBotSwitch); ok {
		t.Fatal("SWITCH sent although d-o is unmeasured")
	}
	rr, ok := env.lastOfType(msg.XBotReplaceReply)
	if !ok || rr.m.Accept {
		t.Fatal("unmeasured swap not rejected")
	}
}

func TestInitiatorProposesCheaperCandidate(t *testing.T) {
	oracle := mapOracle{}
	oracle.set(1, 2, 10)  // protected cheapest link
	oracle.set(1, 3, 100) // the link worth replacing
	oracle.set(1, 4, 20)  // the passive candidate
	n, m, env := newTestNode(1, 2, Config{}, oracle)
	m.active = []id.ID{2, 3}
	m.passive = []id.ID{4}

	n.OnCycle()
	sent, ok := env.lastOfType(msg.XBotOptimization)
	if !ok {
		t.Fatal("no OPTIMIZATION sent despite a cheaper candidate")
	}
	if sent.to != 4 || sent.m.Subject != 3 {
		t.Errorf("proposed to %v replacing %v, want candidate 4 replacing 3", sent.to, sent.m.Subject)
	}
	if sent.m.CostOld != 100 || sent.m.CostNew != 20 {
		t.Errorf("costs = (%d, %d), want (100, 20)", sent.m.CostOld, sent.m.CostNew)
	}
	if n.Stats().Attempts != 1 {
		t.Error("attempt not counted")
	}
	// A second cycle must not start a concurrent handshake.
	env.take()
	n.OnCycle()
	if _, ok := env.lastOfType(msg.XBotOptimization); ok {
		t.Error("second OPTIMIZATION sent while one is pending")
	}
}

func TestInitiatorSkipsWhenNotFullOrNoGain(t *testing.T) {
	oracle := mapOracle{}
	oracle.set(1, 2, 10)
	oracle.set(1, 3, 30)
	oracle.set(1, 4, 500) // candidate worse than every active link
	n, m, env := newTestNode(1, 2, Config{}, oracle)
	m.active = []id.ID{2} // deficient view
	m.passive = []id.ID{4}
	n.OnCycle()
	if _, ok := env.lastOfType(msg.XBotOptimization); ok {
		t.Error("optimized a deficient active view")
	}
	m.active = []id.ID{2, 3} // full, but the candidate is expensive
	n.OnCycle()
	if _, ok := env.lastOfType(msg.XBotOptimization); ok {
		t.Error("proposed a candidate costlier than the worst link")
	}
}

func TestInitiatorProtectsTopK(t *testing.T) {
	oracle := mapOracle{}
	oracle.set(1, 2, 10)
	oracle.set(1, 3, 100)
	oracle.set(1, 4, 1) // candidate beats everything
	n, m, env := newTestNode(1, 2, Config{ProtectTopK: 2}, oracle)
	m.active = []id.ID{2, 3}
	m.passive = []id.ID{4}
	n.OnCycle()
	if _, ok := env.lastOfType(msg.XBotOptimization); ok {
		t.Error("dissolved a protected link (ProtectTopK=2 with 2 links)")
	}
}

func TestCandidateDirectAcceptWithFreeSlot(t *testing.T) {
	oracle := mapOracle{}
	n, m, env := newTestNode(5, 3, Config{}, oracle)
	m.active = []id.ID{6}
	n.Deliver(9, &msg.Message{Type: msg.XBotOptimization, Sender: 9, Subject: 7, CostOld: 100, CostNew: 20})
	reply, ok := env.lastOfType(msg.XBotOptimizationReply)
	if !ok || reply.to != 9 {
		t.Fatal("no reply to the initiator")
	}
	if !reply.m.Accept {
		t.Error("free slot rejected")
	}
	if reply.m.Subject != 7 {
		t.Error("reply lost the old-neighbor context")
	}
	if !m.ActiveContains(9) {
		t.Error("initiator not admitted")
	}
}

func TestCandidateDelegatesToEvictee(t *testing.T) {
	oracle := mapOracle{}
	oracle.set(5, 6, 5)  // protected
	oracle.set(5, 8, 80) // the evictee d
	oracle.set(5, 9, 10) // the initiator i: cheaper than d, worth trading
	n, m, env := newTestNode(5, 2, Config{}, oracle)
	m.active = []id.ID{6, 8}
	n.Deliver(9, &msg.Message{Type: msg.XBotOptimization, Sender: 9, Subject: 7, CostOld: 100, CostNew: 10})
	rep, ok := env.lastOfType(msg.XBotReplace)
	if !ok {
		t.Fatal("full candidate did not delegate via REPLACE")
	}
	if rep.to != 8 {
		t.Errorf("REPLACE sent to %v, want the costliest non-protected link 8", rep.to)
	}
	if rep.m.Subject != 7 || len(rep.m.Nodes) != 1 || rep.m.Nodes[0] != 9 {
		t.Errorf("REPLACE context wrong: %+v", rep.m)
	}
	if rep.m.CostOld != 100 || rep.m.CostNew != 10 {
		t.Error("costs not relayed")
	}
	if _, ok := env.lastOfType(msg.XBotOptimizationReply); ok {
		t.Error("candidate replied before the 4-node path resolved")
	}
	_ = m
}

func TestCandidateRejectsWorseInitiator(t *testing.T) {
	oracle := mapOracle{}
	oracle.set(5, 6, 5)
	oracle.set(5, 8, 80)
	oracle.set(5, 9, 300) // initiator costlier than the evictee: no gain for c
	n, m, env := newTestNode(5, 2, Config{}, oracle)
	m.active = []id.ID{6, 8}
	n.Deliver(9, &msg.Message{Type: msg.XBotOptimization, Sender: 9, Subject: 7, CostOld: 400, CostNew: 300})
	reply, ok := env.lastOfType(msg.XBotOptimizationReply)
	if !ok || reply.m.Accept {
		t.Fatal("candidate should reject an initiator costlier than its own worst link")
	}
}

func TestDisconnectedAcceptsStrictImprovement(t *testing.T) {
	// Swap dissolves {i-o:100, c-d:80} and creates {i-c:10, d-o:50}:
	// 60 < 180, accept.
	oracle := mapOracle{}
	oracle.set(8, 5, 80) // c-d
	oracle.set(8, 7, 50) // d-o
	n, m, env := newTestNode(8, 2, Config{ProtectTopK: 0}, oracle)
	n.cfg.ProtectTopK = 0 // every link negotiable for this scenario
	m.active = []id.ID{5, 6}
	n.Deliver(5, &msg.Message{
		Type: msg.XBotReplace, Sender: 5, Subject: 7, Nodes: []id.ID{9},
		CostOld: 100, CostNew: 10,
	})
	sw, ok := env.lastOfType(msg.XBotSwitch)
	if !ok {
		t.Fatal("no SWITCH despite strict improvement")
	}
	if sw.to != 7 || sw.m.Subject != 9 || len(sw.m.Nodes) != 1 || sw.m.Nodes[0] != 5 {
		t.Errorf("SWITCH context wrong: to=%v %+v", sw.to, sw.m)
	}

	// The old neighbor accepts: d commits the o link and drops c.
	env.take()
	n.Deliver(7, &msg.Message{Type: msg.XBotSwitchReply, Sender: 7, Subject: 9, Accept: true})
	if !m.ActiveContains(7) {
		t.Error("d did not commit the link to o")
	}
	if m.ActiveContains(5) {
		t.Error("d kept the link to c")
	}
	if dw, ok := env.lastOfType(msg.XBotDisconnectWait); !ok || dw.to != 5 {
		t.Error("c was not told the link dissolved")
	}
	if rr, ok := env.lastOfType(msg.XBotReplaceReply); !ok || rr.to != 5 || !rr.m.Accept {
		t.Error("acceptance not relayed to c")
	}
}

func TestDisconnectedRejectsNonImprovement(t *testing.T) {
	// Swap dissolves {i-o:100, c-d:80} and creates {i-c:90, d-o:95}:
	// 185 >= 180, reject.
	oracle := mapOracle{}
	oracle.set(8, 5, 80)
	oracle.set(8, 7, 95)
	n, m, env := newTestNode(8, 2, Config{ProtectTopK: 0}, oracle)
	n.cfg.ProtectTopK = 0
	m.active = []id.ID{5, 6}
	n.Deliver(5, &msg.Message{
		Type: msg.XBotReplace, Sender: 5, Subject: 7, Nodes: []id.ID{9},
		CostOld: 100, CostNew: 90,
	})
	if _, ok := env.lastOfType(msg.XBotSwitch); ok {
		t.Fatal("SWITCH sent for a non-improving swap")
	}
	rr, ok := env.lastOfType(msg.XBotReplaceReply)
	if !ok || rr.m.Accept {
		t.Fatal("non-improving swap not rejected")
	}
}

func TestOldNeighborSwitchesLinks(t *testing.T) {
	oracle := mapOracle{}
	oracle.set(7, 9, 100) // the link to the initiator, expensive
	oracle.set(7, 2, 1)   // a protected cheap link
	n, m, env := newTestNode(7, 2, Config{}, oracle)
	m.active = []id.ID{2, 9}
	n.Deliver(8, &msg.Message{Type: msg.XBotSwitch, Sender: 8, Subject: 9, Nodes: []id.ID{5}})
	if dw, ok := env.lastOfType(msg.XBotDisconnectWait); !ok || dw.to != 9 {
		t.Error("initiator not sent DISCONNECTWAIT")
	}
	if m.ActiveContains(9) {
		t.Error("initiator link not dissolved")
	}
	if !m.ActiveContains(8) {
		t.Error("link to d not committed")
	}
	sr, ok := env.lastOfType(msg.XBotSwitchReply)
	if !ok || !sr.m.Accept || sr.to != 8 {
		t.Error("SWITCH not accepted")
	}
}

func TestOldNeighborProtectsUnbiasedFloor(t *testing.T) {
	oracle := mapOracle{}
	oracle.set(7, 9, 100)
	n, m, env := newTestNode(7, 2, Config{}, oracle)
	// The initiator link is this node's only unbiased link: at the
	// ProtectTopK=1 floor it must not be dissolved.
	m.active = []id.ID{9}
	n.Deliver(8, &msg.Message{Type: msg.XBotSwitch, Sender: 8, Subject: 9, Nodes: []id.ID{5}})
	sr, ok := env.lastOfType(msg.XBotSwitchReply)
	if !ok || sr.m.Accept {
		t.Fatal("last unbiased link switched away")
	}
	if !m.ActiveContains(9) || m.ActiveContains(8) {
		t.Error("views changed despite rejection")
	}
}

func TestBiasedLinksStayNegotiable(t *testing.T) {
	oracle := mapOracle{}
	oracle.set(7, 9, 100) // biased link to the initiator
	oracle.set(7, 2, 5)   // the one unbiased link
	n, m, env := newTestNode(7, 2, Config{}, oracle)
	m.active = []id.ID{2}
	// A completed direct-accept swap creates a biased link to 9.
	n.Deliver(9, &msg.Message{Type: msg.XBotOptimization, Sender: 9, Subject: 4, CostOld: 300, CostNew: 100})
	if !m.ActiveContains(9) {
		t.Fatal("direct accept did not admit the initiator")
	}
	env.take()
	// Even at the unbiased floor (only link 2 is unbiased), the biased link
	// to 9 may still be switched away.
	n.Deliver(8, &msg.Message{Type: msg.XBotSwitch, Sender: 8, Subject: 9, Nodes: []id.ID{5}})
	sr, ok := env.lastOfType(msg.XBotSwitchReply)
	if !ok || !sr.m.Accept {
		t.Fatal("biased link treated as protected")
	}
	if m.ActiveContains(9) || !m.ActiveContains(8) {
		t.Error("switch not committed")
	}
	if !m.ActiveContains(2) {
		t.Error("unbiased link disturbed")
	}
}

func TestBiasMarkClearedOnTeardown(t *testing.T) {
	oracle := mapOracle{}
	oracle.set(7, 9, 100)
	oracle.set(7, 2, 5)
	n, m, env := newTestNode(7, 2, Config{}, oracle)
	m.active = []id.ID{2}
	// A direct-accept swap creates a biased link to 9...
	n.Deliver(9, &msg.Message{Type: msg.XBotOptimization, Sender: 9, Subject: 4, CostOld: 300, CostNew: 100})
	// ...which 9's own later swap tears down again.
	n.Deliver(9, &msg.Message{Type: msg.XBotDisconnectWait, Sender: 9})
	if m.ActiveContains(9) {
		t.Fatal("DISCONNECTWAIT did not dissolve the link")
	}
	// HyParView's random repair re-admits the same peer before any
	// reconciliation runs: the new link is unbiased and must count toward
	// the protection floor.
	m.active = []id.ID{9}
	env.take()
	n.Deliver(8, &msg.Message{Type: msg.XBotSwitch, Sender: 8, Subject: 9, Nodes: []id.ID{5}})
	sr, ok := env.lastOfType(msg.XBotSwitchReply)
	if !ok || sr.m.Accept {
		t.Fatal("stale bias mark let the last unbiased link be switched away")
	}
}

func TestInitiatorCommitsOnAccept(t *testing.T) {
	oracle := mapOracle{}
	oracle.set(1, 2, 10)
	oracle.set(1, 3, 100)
	oracle.set(1, 4, 20)
	n, m, env := newTestNode(1, 2, Config{}, oracle)
	m.active = []id.ID{2, 3}
	m.passive = []id.ID{4}
	n.OnCycle() // proposes 4 replacing 3
	env.take()

	// Direct-accept path: no DISCONNECTWAIT arrived first, so the initiator
	// tears the old link down itself.
	n.Deliver(4, &msg.Message{Type: msg.XBotOptimizationReply, Sender: 4, Subject: 3, Accept: true})
	if !m.ActiveContains(4) || m.ActiveContains(3) {
		t.Errorf("swap not committed: active=%v", m.active)
	}
	if dw, ok := env.lastOfType(msg.XBotDisconnectWait); !ok || dw.to != 3 {
		t.Error("old neighbor not told about the teardown")
	}
	if n.Stats().SwapsCompleted != 1 {
		t.Error("swap not counted")
	}
}

func TestInitiatorFourNodePathNoDoubleTeardown(t *testing.T) {
	oracle := mapOracle{}
	oracle.set(1, 2, 10)
	oracle.set(1, 3, 100)
	oracle.set(1, 4, 20)
	n, m, env := newTestNode(1, 2, Config{}, oracle)
	m.active = []id.ID{2, 3}
	m.passive = []id.ID{4}
	n.OnCycle()
	env.take()

	// 4-node path: o's DISCONNECTWAIT arrives before the candidate's reply.
	n.Deliver(3, &msg.Message{Type: msg.XBotDisconnectWait, Sender: 3})
	if m.ActiveContains(3) {
		t.Fatal("DISCONNECTWAIT did not dissolve the link")
	}
	n.Deliver(4, &msg.Message{Type: msg.XBotOptimizationReply, Sender: 4, Subject: 3, Accept: true})
	if !m.ActiveContains(4) {
		t.Error("candidate link not committed")
	}
	if dw, ok := env.lastOfType(msg.XBotDisconnectWait); ok {
		t.Errorf("redundant DISCONNECTWAIT to %v", dw.to)
	}
}

func TestRejectionLeavesViewsUntouched(t *testing.T) {
	oracle := mapOracle{}
	oracle.set(1, 2, 10)
	oracle.set(1, 3, 100)
	oracle.set(1, 4, 20)
	n, m, env := newTestNode(1, 2, Config{}, oracle)
	m.active = []id.ID{2, 3}
	m.passive = []id.ID{4}
	n.OnCycle()
	env.take()
	n.Deliver(4, &msg.Message{Type: msg.XBotOptimizationReply, Sender: 4, Subject: 3})
	if !m.ActiveContains(3) || m.ActiveContains(4) {
		t.Errorf("rejected swap changed the view: %v", m.active)
	}
	if n.Stats().SwapsRejected != 1 {
		t.Error("rejection not counted")
	}
	// The handshake is closed: the next cycle may try again.
	n.OnCycle()
	if _, ok := env.lastOfType(msg.XBotOptimization); !ok {
		t.Error("optimizer wedged after a rejection")
	}
}

func TestPendingHandshakeExpires(t *testing.T) {
	oracle := mapOracle{}
	oracle.set(1, 2, 10)
	oracle.set(1, 3, 100)
	oracle.set(1, 4, 20)
	n, m, env := newTestNode(1, 2, Config{PendingTTL: 7}, oracle)
	m.active = []id.ID{2, 3}
	m.passive = []id.ID{4}
	n.OnCycle()
	env.take()
	if env.Pending() != 1 {
		t.Fatalf("expiry sweeps armed = %d, want 1 (via peer.Scheduler)", env.Pending())
	}
	// The candidate never answers: the scheduler fires the expiry sweep at
	// the handshake's deadline and the state is reclaimed.
	for _, tick := range env.Advance(7) {
		n.Deliver(1, &tick)
	}
	if n.Stats().Expired == 0 {
		t.Error("stuck handshake never expired")
	}
	n.OnCycle()
	if _, ok := env.lastOfType(msg.XBotOptimization); !ok {
		t.Error("no fresh attempt after expiry")
	}
}

func TestExpirySweepSparesYoungerHandshake(t *testing.T) {
	oracle := mapOracle{}
	oracle.set(1, 2, 10)
	oracle.set(1, 3, 100)
	oracle.set(1, 4, 20)
	n, m, env := newTestNode(1, 2, Config{PendingTTL: 50}, oracle)
	m.active = []id.ID{2, 3}
	m.passive = []id.ID{4}
	n.OnCycle() // handshake armed at t=0, deadline 50
	env.take()
	// A sweep firing before the deadline (e.g. armed by an older handshake)
	// must leave the outstanding state alone.
	for _, tick := range env.Advance(49) {
		n.Deliver(1, &tick)
	}
	if n.pending == nil {
		t.Fatal("sweep before the deadline reaped a live handshake")
	}
	for _, tick := range env.Advance(1) {
		n.Deliver(1, &tick)
	}
	if n.pending != nil {
		t.Error("handshake survived its deadline")
	}
}

func TestSendFailureAbandonsHandshake(t *testing.T) {
	oracle := mapOracle{}
	oracle.set(1, 2, 10)
	oracle.set(1, 3, 100)
	oracle.set(1, 4, 20)
	n, m, env := newTestNode(1, 2, Config{}, oracle)
	m.active = []id.ID{2, 3}
	m.passive = []id.ID{4}
	env.down[4] = true
	n.OnCycle()
	if n.Stats().Attempts != 0 {
		t.Error("attempt counted despite the candidate being down")
	}
	if n.pending != nil {
		t.Error("pending state left for a dead candidate")
	}
}

func TestDeliverDelegatesNonXBotTraffic(t *testing.T) {
	oracle := mapOracle{}
	n, _, _ := newTestNode(1, 2, Config{}, oracle)
	// Must not panic and must reach the inner stub (which ignores it).
	n.Deliver(2, &msg.Message{Type: msg.Shuffle, Sender: 2, Subject: 2, TTL: 3})
	n.Deliver(2, &msg.Message{Type: msg.Gossip, Sender: 2, Round: 1})
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.Period != 1 || cfg.Candidates != 2 || cfg.ProtectTopK != 1 || cfg.PendingTTL != 5000 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if cfg.Interval != 0 {
		t.Errorf("Interval defaulted to %d, want 0 (cycle-driven)", cfg.Interval)
	}
}
