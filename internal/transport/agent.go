package transport

import (
	"fmt"
	"sync"
	"time"

	"hyparview/internal/core"
	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/plumtree"
	"hyparview/internal/pubsub"
	"hyparview/internal/rng"
	"hyparview/internal/stack"
	"hyparview/internal/xbot"
)

// BroadcastMode selects the broadcast layer a TCP agent runs over HyParView.
type BroadcastMode uint8

// Broadcast modes.
const (
	// BroadcastFlood forwards every payload on every active-view link except
	// the arrival one: the paper's own dissemination (§4.1).
	BroadcastFlood BroadcastMode = iota
	// BroadcastPlumtree runs the Plumtree epidemic broadcast tree (SRDS
	// 2007): eager payload push on tree links, lazy IHAVE announcements
	// elsewhere, GRAFT/PRUNE repair — flooding's reliability at near-zero
	// payload redundancy.
	BroadcastPlumtree
)

// String names the mode.
func (m BroadcastMode) String() string {
	switch m {
	case BroadcastFlood:
		return "flood"
	case BroadcastPlumtree:
		return "plumtree"
	default:
		return fmt.Sprintf("BroadcastMode(%d)", uint8(m))
	}
}

// AgentConfig configures a TCP-hosted HyParView node.
type AgentConfig struct {
	// Core carries the HyParView parameters (zero fields take the paper's
	// defaults).
	Core core.Config
	// CyclePeriod is the shuffle period (ΔT). Zero disables automatic
	// cycles; Cycle can then be driven manually (useful in tests).
	CyclePeriod time.Duration
	// Transport carries the fault-injection seams.
	Transport Config
	// Seed drives the node's deterministic randomness; zero derives a seed
	// from the bound address.
	Seed uint64

	// Broadcast selects the broadcast layer (default BroadcastFlood).
	Broadcast BroadcastMode
	// PlumtreeTimer is the missing-message timeout under the agent's real
	// clock: how long a node that heard an IHAVE announcement waits for the
	// eager copy before GRAFTing the announcer. It is mapped onto
	// plumtree.Config.TimerDelay through the agent's peer.Scheduler (one
	// tick = 1ms); the protocol schedules the timer itself, identically in
	// the simulator and here. Every other Plumtree parameter takes the
	// protocol's default. Default 200ms.
	PlumtreeTimer time.Duration

	// Optimize layers the X-BOT optimizer (SRDS 2009) over HyParView: the
	// prober measures live RTTs with PING/PONG exchanges and the 4-node
	// coordinated swap handshake continuously rewires the active view toward
	// low-latency links, with the protocol's default parameters. Each
	// optimization attempt probes a few passive-view members; probing a dead
	// candidate costs one failed dial (at most the transport's 3s dial
	// timeout, usually an immediate refusal) under the agent lock — the
	// same price HyParView's own view repair pays per dead passive entry.
	Optimize bool

	// SuspectAfter, when positive, arms half-open link detection: an active
	// peer whose PINGs go unanswered for this many consecutive probe rounds
	// is marked suspected — the transport closes its socket proactively and
	// NeighborDown fires without waiting for a write to time out. This is
	// the failure-detector sharpening the paper's TCP-as-detector (§4.1)
	// needs for stalled-but-not-closed peers: a wedged process whose kernel
	// keeps ACKing looks healthy to every write. 0 disables (the default).
	//
	// Optimize or SuspectAfter arms the prober, which PINGs every active-view
	// peer once per probe round: every CyclePeriod, or every second when
	// cycles are driven by hand. The suspicion window is therefore
	// SuspectAfter × CyclePeriod.
	SuspectAfter int

	// PubSub, when set, wraps the broadcast layer in a pubsub.Router built
	// from this configuration and enables the agent's Subscribe/Publish API —
	// the same Router the simulator's clusters run, over the real clock
	// (Config.FlushInterval counts scheduler ticks of 1ms). A nil NextRound
	// defaults to the node's random stream (collisions across 64 bits are
	// negligible, as for Broadcast); a nil Fallback defaults to OnDeliver, so
	// plain broadcasts keep reaching the callback through the wrapped stack.
	PubSub *pubsub.Config

	// OnDeliver is invoked under the agent lock — one call at a time, from
	// whichever goroutine is dispatching — once per delivered broadcast. It
	// must not call back into the agent. payload is lent: read-only, and
	// valid until the callback returns, as a received payload is decoded in
	// its connection's read buffer; a callback that keeps it keeps a copy
	// (see package peer, "Message ownership"). May be nil.
	OnDeliver func(payload []byte)
	// OnNeighborUp is invoked under the agent lock when a peer enters the
	// active view. It must not call back into the agent. May be nil.
	OnNeighborUp func(peerID id.ID)
	// OnNeighborDown is invoked under the agent lock when a peer leaves the
	// active view. It must not call back into the agent. May be nil.
	OnNeighborDown func(peerID id.ID, reason core.DownReason)
}

// agentEnv is the peer.Env the protocol stack runs in: the transport's
// Self/Probe/Watch/Unwatch, the agent's real-clock scheduler's
// Now/After/Every — timers are protocol-owned, there is no
// self-addressed-send interception — and the node's random stream.
type agentEnv struct {
	*Transport
	*clockScheduler
	rand *rng.Rand
}

var _ peer.Env = (*agentEnv)(nil)

func (e *agentEnv) Rand() *rng.Rand { return e.rand }

func (e *agentEnv) Send(d id.ID, m msg.Message) error {
	if d == e.Self() {
		return fmt.Errorf("transport: self-send unsupported; schedule timers via peer.Scheduler")
	}
	return e.Transport.Send(d, m)
}

// Agent runs one HyParView node over real TCP, hosting the full protocol
// stack of the paper and its companion papers: the HyParView core, the
// selected broadcast layer (flood or Plumtree), and optionally the X-BOT
// overlay optimizer fed by a live RTT oracle. The protocol state machine is
// single-threaded: every network delivery, timer tick, peer-down
// notification and API call runs under one agent lock, so the core protocol
// needs no locking of its own — the same discipline the simulator enforces.
// Each runs on the goroutine that raised it — a frame on its reader, a timer
// firing on its timer goroutine (post), a peer-down on the goroutine that
// condemned the link (peerDown), an API call on its caller — so the agent
// starts no goroutine of its own. Lock order: a.mu before the transport's
// locks; the transport calls back (post, peerDown) holding none of its own.
type Agent struct {
	tr *Transport
	// mu serializes the protocol work: frame, the stack, the prober and the
	// drain list.
	mu           sync.Mutex
	frame        msg.Message // the delivery being dispatched; under mu
	stack        stack.Stack // assembled once in NewAgent; the layers run under mu only
	rand         *rng.Rand
	sched        *clockScheduler
	probe        *prober
	suspectAfter int
	probePeriod  time.Duration
	drains       []id.ID // raised under mu, run by unlock; under mu
	closed       bool    // set by Close; under mu
	closeOnce    sync.Once
}

// NewAgent binds a listener on listenAddr. Close must be called to release
// the listener and goroutines. An inconsistent Core configuration or an
// unknown Broadcast mode is returned as an error before anything is bound.
func NewAgent(listenAddr string, cfg AgentConfig) (*Agent, error) {
	// The agent's options in the stack's terms: wall-clock periods become
	// scheduler ticks. The oracle and the round allocator are filled in below,
	// once the transport they depend on exists.
	scfg := stack.Config{Core: cfg.Core, PubSub: cfg.PubSub}
	if cfg.CyclePeriod > 0 {
		// ΔT: the core schedules its own periodic rounds on the agent's
		// clock; the tick cascades down the whole stack.
		scfg.RoundTicks = ticks(cfg.CyclePeriod)
	}
	switch cfg.Broadcast {
	case BroadcastFlood:
	case BroadcastPlumtree:
		ptimer := cfg.PlumtreeTimer
		if ptimer <= 0 {
			ptimer = 200 * time.Millisecond
		}
		scfg.Plumtree = &plumtree.Config{TimerDelay: ticks(ptimer)}
	default:
		return nil, fmt.Errorf("transport: unknown broadcast mode %v", cfg.Broadcast)
	}
	if cb := cfg.OnDeliver; cb != nil {
		scfg.Deliver = func(_ uint64, _ uint32, payload []byte, _ int) { cb(payload) }
	}
	if err := scfg.CoreConfig().Validate(); err != nil {
		return nil, fmt.Errorf("transport: agent config: %w", err)
	}

	a := &Agent{suspectAfter: cfg.SuspectAfter, probePeriod: time.Second}
	if cfg.CyclePeriod > 0 {
		a.probePeriod = cfg.CyclePeriod
	}
	// Readers dispatch under the agent lock from the moment the listener is
	// bound; holding it until the stack is built parks an early frame.
	a.mu.Lock()
	defer a.mu.Unlock()
	tr, err := Listen(listenAddr, cfg.Transport, a.post, a.peerDown)
	if err != nil {
		return nil, err
	}
	a.tr = tr
	// The real-clock half of the peer.Scheduler contract: scheduled messages
	// are dispatched as self-deliveries at the top of the protocol stack
	// (post), exactly as the simulator delivers them — on the delivery path,
	// with no closure per tick.
	a.sched = newClockScheduler(func(m msg.Message) { a.post(tr.Self(), m) })
	seed := cfg.Seed
	if seed == 0 {
		seed = uint64(tr.Self()) ^ uint64(time.Now().UnixNano())
	}
	a.rand = rng.New(seed)
	scfg.NextRound = a.rand.Uint64
	a.probe = newProber(tr.Self(), a.sendPing)
	if cfg.Optimize {
		scfg.Oracle = a.probe
	}
	a.stack = stack.Build(&agentEnv{tr, a.sched, a.rand}, scfg)
	userDown := cfg.OnNeighborDown
	a.stack.Core.SetListener(core.Listener{
		NeighborUp: cfg.OnNeighborUp,
		NeighborDown: func(p id.ID, reason core.DownReason) {
			if reason != core.DownFailed {
				// Deliberate departure (demotion to passive, or the peer's
				// DISCONNECT): retire the connection gracefully. The drain is
				// deferred to unlock because the current dispatch may still
				// queue a courtesy DISCONNECT for p — core fires this
				// callback before sending it — and the flush must see that
				// frame. Failures need no drain: the link is already gone.
				a.drains = append(a.drains, p)
			}
			if userDown != nil {
				userDown(p, reason)
			}
		},
	})
	// The prober serves two purposes: the X-BOT RTT oracle (Optimize) and
	// half-open suspicion (SuspectAfter). Either one arms its round.
	if cfg.Optimize || a.suspectAfter > 0 {
		a.sched.Every(ticks(a.probePeriod), msg.Message{Type: msg.Tick, Sender: tr.Self(), Round: msg.TickProbe})
	}
	return a, nil
}

// ticks converts a wall-clock duration to scheduler ticks, never rounding a
// positive duration down to zero.
func ticks(d time.Duration) uint64 {
	t := uint64(d / tickDuration)
	if t == 0 {
		t = 1
	}
	return t
}

// post dispatches one delivery — a frame, from the transport reader that
// decoded it, or a scheduler firing — under the agent lock, and drops it
// once the agent stops. A reader does not read its next frame until the
// stack has handled this one, which gives two guarantees. A peer's frames
// are handled in the order it sent them, and before the end of its stream:
// a DISCONNECT unwatches the peer before the reader reaches the half-close
// of its drain, so the link drains instead of reporting the peer failed
// (see Transport.serve). And a slow stack stops the readers, so TCP
// backpressure propagates and remote peers' write timeouts expel us —
// precisely the slow-node handling the paper adopts from NeEM (§5.5).
// The stack is handed a pointer to a.frame, so m does not escape: one
// message per agent, not one allocation per frame.
func (a *Agent) post(from id.ID, m msg.Message) {
	a.mu.Lock()
	defer a.unlock()
	if a.closed {
		return
	}
	a.frame = m
	a.dispatch(from, &a.frame)
}

// peerDown is the transport's watch callback. The transport fires it with
// none of its locks held, from the link's writer or reader that saw the
// connection end, or from the goroutine a failed Watch dial or a Suspect
// started.
func (a *Agent) peerDown(p id.ID) {
	a.mu.Lock()
	defer a.unlock()
	if !a.closed {
		a.stack.Top.OnPeerDown(p)
	}
}

// unlock releases the agent lock, then runs the drains raised under it, in
// order: a drain must flush the DISCONNECT core queues after NeighborDown.
// Every lock hold that runs protocol code ends here.
func (a *Agent) unlock() {
	drains := a.drains
	a.drains = nil
	a.mu.Unlock()
	for _, p := range drains {
		a.tr.Drain(p)
	}
}

// dispatch routes one delivery under the agent lock: the RTT measurement
// traffic is answered here, everything else descends the
// broadcast/optimizer/membership stack. *m is read-only until dispatch
// returns.
func (a *Agent) dispatch(from id.ID, m *msg.Message) {
	switch m.Type {
	case msg.Ping:
		// Echo the nonce back on the pinger's link. The PING came in on it
		// — a connection we dialed, or the pinger's own, which the
		// transport adopted, an optimizer measuring a candidate link
		// included — or on the pinger's connection read beside a live link
		// of ours, which the transport adopts once that link is gone. So
		// the reply needs no dial. A pinger whose link is between
		// connections goes unanswered; the prober retries. The
		// pong literal stays on the stack, keeping the probe path
		// allocation-free on this side. Failed sends need no handling: the
		// watch machinery reports broken links.
		if a.tr.Connected(from) {
			_ = a.tr.Send(from, msg.Message{Type: msg.Pong, Sender: a.tr.Self(), Round: m.Round})
		}
	case msg.Pong:
		a.probe.answered(from, m.Round, time.Now())
	default:
		if m.Type == msg.Tick && m.Round == msg.TickProbe && from == a.tr.Self() {
			a.onProbeTick()
			return
		}
		a.stack.Top.Deliver(from, m)
	}
}

// Self returns the agent's node identifier.
func (a *Agent) Self() id.ID { return a.tr.Self() }

// Addr returns the agent's listen address.
func (a *Agent) Addr() string { return a.tr.Addr() }

// Join connects to the overlay through the node listening at contactAddr.
func (a *Agent) Join(contactAddr string) error {
	contact := a.tr.Register(contactAddr)
	a.mu.Lock()
	defer a.unlock()
	if a.closed {
		return ErrClosed
	}
	if err := a.stack.Core.Join(contact); err != nil {
		return fmt.Errorf("join via %s: %w", contactAddr, err)
	}
	return nil
}

// Broadcast disseminates payload over the overlay through the configured
// broadcast layer. The round identifier is drawn from the node's random
// stream; collisions across 64 bits are negligible.
func (a *Agent) Broadcast(payload []byte) error {
	a.mu.Lock()
	defer a.unlock()
	if a.closed {
		return ErrClosed
	}
	a.stack.Top.Broadcast(a.rand.Uint64(), payload)
	return nil
}

// ErrNoPubSub is returned by the pub/sub API on agents built without
// AgentConfig.PubSub.
var ErrNoPubSub = fmt.Errorf("transport: agent built without AgentConfig.PubSub")

// onRouter runs op against the pub/sub router under the agent lock.
func (a *Agent) onRouter(op func(*pubsub.Router) error) error {
	if a.stack.Router == nil {
		return ErrNoPubSub
	}
	a.mu.Lock()
	defer a.unlock()
	if a.closed {
		return ErrClosed
	}
	return op(a.stack.Router)
}

// Subscribe registers fn for topic on the agent's pub/sub router. Handlers
// run under the agent lock with frozen, read-only payloads — copy before
// retaining or crossing goroutines. A handler must not call back into the
// agent.
func (a *Agent) Subscribe(topic uint32, fn pubsub.Handler) error {
	return a.onRouter(func(r *pubsub.Router) error { return r.Subscribe(topic, fn) })
}

// Publish disseminates payload on topic over the overlay through the pub/sub
// router (batched per AgentConfig.PubSub). The payload is frozen from this
// call on, per the ownership rules on package peer.
func (a *Agent) Publish(topic uint32, payload []byte) error {
	return a.onRouter(func(r *pubsub.Router) error { return r.Publish(topic, payload) })
}

// FlushPubSub broadcasts every open batch frame now, ahead of the size
// threshold or flush tick.
func (a *Agent) FlushPubSub() error {
	return a.onRouter(func(r *pubsub.Router) error { r.Flush(); return nil })
}

// PubSubStats returns the pub/sub router's counters; ok is false when the
// agent runs without AgentConfig.PubSub.
func (a *Agent) PubSubStats() (stats pubsub.Stats, ok bool) {
	if l := a.stack.Router; l != nil {
		a.mu.Lock()
		defer a.mu.Unlock()
		stats, ok = l.Stats(), true
	}
	return stats, ok
}

// Cycle triggers one membership cycle synchronously (manual ΔT driving,
// for agents built with CyclePeriod zero). With Optimize set this includes
// the X-BOT optimization attempt cadence; agents with a CyclePeriod run
// both through the scheduler instead.
func (a *Agent) Cycle() error {
	a.mu.Lock()
	defer a.unlock()
	if a.closed {
		return ErrClosed
	}
	a.stack.Top.OnCycle()
	return nil
}

// The read-only accessors below take the agent lock for a consistent
// snapshot. After Close they return the state the agent stopped in.

// ActiveView returns a snapshot of the active view.
func (a *Agent) ActiveView() []id.ID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stack.Core.Active()
}

// PassiveView returns a snapshot of the passive view.
func (a *Agent) PassiveView() []id.ID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stack.Core.Passive()
}

// Stats returns a snapshot of the protocol counters.
func (a *Agent) Stats() core.Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stack.Core.Stats()
}

// BroadcastStats is a snapshot of the broadcast layer's payload accounting:
// Delivered counts first copies (including this node's own broadcasts),
// Duplicates counts redundant payload receptions, Forwarded counts payload
// sends, SendFails counts sends rejected because the peer was down. The
// population-level RMR of an overlay over a burst of msgs broadcasts is
// sum(Duplicates) / (sum(Delivered) - msgs): redundant payload receptions
// per payload reception the dissemination actually required (an
// originator's own delivery involves no wire reception). Per node,
// Duplicates/Delivered is the local redundancy share.
type BroadcastStats struct {
	Delivered  uint64
	Duplicates uint64
	Forwarded  uint64
	SendFails  uint64
}

// BroadcastStats returns the broadcast layer's payload accounting.
func (a *Agent) BroadcastStats() (out BroadcastStats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	out.Delivered, out.Duplicates, out.Forwarded, out.SendFails = a.stack.Top.Counters()
	return out
}

// TransportStats returns the transport's frame and lifecycle counters:
// frames written to sockets, frames shed by per-peer send-queue overflow
// (each a Send that returned peer.ErrOverflow), inbound deliveries
// suppressed by a fault-injection hook, and the connection lifecycle
// manager's accounting — dial races lost, links condemned by half-open
// suspicion, and graceful drains. Needs no agent lock:
// counters are atomic.
func (a *Agent) TransportStats() Stats { return a.tr.Stats() }

// PlumtreeStats returns the Plumtree control-plane counters; ok is false
// when the agent runs flood broadcast.
func (a *Agent) PlumtreeStats() (stats plumtree.ControlStats, ok bool) {
	if l := a.stack.Plumtree; l != nil {
		a.mu.Lock()
		defer a.mu.Unlock()
		stats, ok = l.Control(), true
	}
	return stats, ok
}

// OptimizerStats returns the X-BOT handshake counters; ok is false when the
// agent runs without the optimizer.
func (a *Agent) OptimizerStats() (stats xbot.Stats, ok bool) {
	if l := a.stack.XBot; l != nil {
		a.mu.Lock()
		defer a.mu.Unlock()
		stats, ok = l.Stats(), true
	}
	return stats, ok
}

// MeanLinkCost returns the mean measured RTT (microseconds) over the
// active-view links the prober has estimates for; ok is false when the
// agent runs without the optimizer or nothing has been measured yet.
func (a *Agent) MeanLinkCost() (mean float64, ok bool) {
	if a.stack.XBot == nil {
		return 0, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var sum float64
	var n int
	for _, p := range a.stack.Core.Active() {
		if c, measured := a.probe.estimate(p); measured {
			sum += c
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Close stops the agent and the transport, waiting for all goroutines. It
// is idempotent and safe for concurrent use; every later call that changes
// the agent returns ErrClosed.
func (a *Agent) Close() error {
	var err error
	a.closeOnce.Do(func() {
		a.mu.Lock()
		if a.stack.Router != nil {
			// Flush buffered publishes before stopping, so a shutdown never
			// strands a batch (the zero-loss half of the batching contract;
			// OnPeerDown handles the overlay-change half).
			a.stack.Router.Close()
		}
		// Closing under the lock orders every delivery: one that holds the
		// lock now — a one-shot timer's goroutine is not tracked — finishes
		// before Close returns, and every later one sees closed and drops.
		a.closed = true
		a.unlock()
		a.sched.halt()
		err = a.tr.Close()
	})
	return err
}
