// Package netsim is a deterministic discrete-event simulator for
// peer-to-peer protocols: this repository's stand-in for PeerSim, the
// simulator used by the paper's evaluation (§5).
//
// Model:
//
//   - Nodes are identified by id.ID and host a peer.Process. Internally the
//     simulator keys everything by a dense node index: the id→index map is
//     consulted once per Send, and the hot delivery path is pure slice
//     access, which is what makes 100k-node populations practical.
//   - All deliveries flow through a single timestamped event heap ordered by
//     (virtual time, send sequence). Without a latency model every message
//     is scheduled with delay 0, so heap order degenerates to exactly the
//     old FIFO order; with a Latency function installed, messages are
//     delayed per link and the virtual clock advances to each event's
//     timestamp. Event payloads live in a pooled slab recycled through a
//     free list, so a long run allocates no per-event garbage beyond the
//     messages themselves.
//   - The simulator implements peer.Scheduler: protocols schedule one-shot
//     timers (After) and periodic rounds (Every) as self-addressed messages
//     on the same heap, interleaved in time order with network traffic.
//   - Send and Probe to a failed node return peer.ErrPeerDown to the caller
//     immediately. This models TCP's connect/reset failure signal, the
//     failure detector HyParView relies on. Lossy protocols simply ignore
//     the error, modelling fire-and-forget datagrams.
//   - Drain runs until no messages or one-shot timers remain, advancing the
//     clock as needed, with the periodic schedule frozen: Every-registered
//     rounds fire only inside RunFor windows. The split is what keeps Drain
//     terminating — under a latency model, self-sustaining periodic rounds
//     plus delayed traffic would otherwise never quiesce — and it matches
//     the paper's methodology, whose bursts run "with no membership cycles
//     in between". RunFor advances virtual time by a fixed duration, firing
//     everything — periodic rounds included — that falls inside the window,
//     in timestamp order across both schedules. RunCycle invokes OnCycle on
//     every live node in a seeded random order for the legacy
//     externally-driven cycle mode.
//
// The simulator is not safe for concurrent use; experiments own one Sim each.
package netsim

import (
	"fmt"
	"sync"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/rng"
)

// ErrOverflow is returned (wrapped) by Send when the in-flight event limit
// is exceeded. Overflowed events are counted in Stats.Overflowed and dropped,
// so runaway message storms degrade the run instead of crashing it. It is an
// alias of peer.ErrOverflow: the TCP transport sheds with the same sentinel,
// so protocol code distinguishes overload from peer death identically in
// both runtimes.
var ErrOverflow = peer.ErrOverflow

// Event kinds: wire traffic versus scheduler deliveries.
const (
	kindMessage  uint8 = iota // network message (counted in wire stats, Tapped)
	kindTimer                 // one-shot scheduler delivery (peer.Scheduler.After)
	kindPeriodic              // periodic scheduler delivery (re-arms itself)
)

// event is the pooled payload of one scheduled delivery.
type event struct {
	from     id.ID // sender identity handed to Deliver (self for timers)
	to       int32 // destination node index
	kind     uint8
	exempt   bool   // bypass the Intercept hook (fault-injected redeliveries)
	interval uint64 // re-arm interval for kindPeriodic
	m        msg.Message
}

// heapEvent is the compact ordering record kept on the heap; the bulky event
// body stays put in the slab while these 24-byte records are sifted.
type heapEvent struct {
	at   uint64 // virtual delivery time
	seq  uint64 // tiebreaker preserving scheduling order
	slot int32  // slab index
}

// simNode is the simulator's per-node bookkeeping, stored by value in a
// dense index-ordered table.
type simNode struct {
	id    id.ID
	proc  peer.Process
	rand  *rng.Rand
	alive bool

	// parked holds scheduler events (one-shot timers, periodic
	// registrations) that came due while the node was failed. They are
	// re-scheduled on Revive: dropping them would wedge timer-owning state
	// machines forever, and re-arming a dead node's periodic rounds would
	// burn heap work delivering nothing for the rest of the run.
	parked []event
}

// Stats aggregates counters over the lifetime of a Sim.
type Stats struct {
	// Sent counts successful Send calls (message enqueued).
	Sent uint64
	// Delivered counts messages handed to a live process.
	Delivered uint64
	// Dropped counts messages whose destination died after enqueue.
	Dropped uint64
	// SendFailures counts Send/Probe calls rejected with ErrPeerDown.
	SendFailures uint64
	// Overflowed counts events rejected by the MaxQueue limit: the send is
	// dropped and reported with ErrOverflow instead of crashing the run, so
	// massive-failure experiments degrade gracefully under message storms.
	Overflowed uint64
	// FaultDropped counts deliveries suppressed by the Intercept hook.
	FaultDropped uint64
	// Redelivered counts messages re-injected through Redeliver (delay,
	// duplicate and replay faults).
	Redelivered uint64
	// BytesSent sums the wire-encoded size of every enqueued message,
	// supporting the packet-overhead measurements the paper planned for
	// PlanetLab (§6).
	BytesSent uint64
}

// Sim is a deterministic event-driven network simulator.
type Sim struct {
	rand  *rng.Rand
	nodes []simNode       // dense node table in insertion order
	index map[id.ID]int32 // id → node table index
	alive int             // live-node count, maintained by Add/Fail/Revive

	// aliveBits packs per-node liveness one bit per table index. The
	// per-send liveness check is the one random access the hot dispatch
	// path cannot avoid; against the 64-byte simNode records a 100k-node
	// population costs a DRAM miss per send, while the bitset (12.5KB)
	// stays cache-resident.
	aliveBits []uint64

	// dense is true while node identifiers follow the harness convention
	// id.ID(i+1) for the i-th added node. Every cluster builder in this
	// repository numbers nodes that way, which lets the per-send id→index
	// translation — the last map access on the hot dispatch path — collapse
	// to an integer subtraction. The first out-of-pattern Add clears the
	// flag and everything falls back to the map, which is maintained either
	// way.
	dense bool

	stats Stats

	heap  []heapEvent // messages and one-shot timers
	pheap []heapEvent // periodic rounds: fired only by RunFor
	slab  []event
	free  []int32 // recycled slab slots
	wire  int     // in-flight network messages, the population MaxQueue bounds

	now uint64 // virtual clock
	seq uint64 // scheduling sequence for deterministic tie-breaking

	// shards, when non-empty, switches the simulator to the sharded
	// wave/barrier engine (see shards.go): the heap/slab machinery above is
	// idle and every event lives in per-shard time buckets instead. Built by
	// NewSharded; nil for the classic single-shard engine.
	shards []shard
	// inWave is true while the shards are delivering a wave: endpoint sends
	// and timer registrations record into per-shard output logs instead of
	// sequencing immediately. wave counts waves over the life of the Sim; its
	// parity selects the arena the wave's output is written to.
	inWave bool
	wave   uint64
	// instantActive is true while runInstant is processing an instant:
	// delay-0 traffic joins the instant's next wave rather than a bucket.
	instantActive bool
	// waveParallel gates parallel waves on a multi-P runtime (captured at
	// NewSharded). waveWG is the per-wave barrier the shard workers report
	// to; workersUp says they are running (only ever inside a Drain or RunFor
	// call) and workersWG joins them when the call returns.
	waveParallel bool
	waveWG       sync.WaitGroup
	workersUp    bool
	workersWG    sync.WaitGroup

	// watchers maps a watched node to the set of nodes holding an open
	// connection to it; when it fails, live watchers implementing
	// peer.FailureObserver receive OnPeerDown (a TCP reset, delivered at
	// the next Drain).
	watchers     map[id.ID]map[id.ID]struct{}
	pendingDowns []id.ID

	// partition, when non-nil, assigns nodes to network partitions: traffic
	// between different partition groups fails exactly like traffic to a
	// crashed node (TCP connects time out across the cut). Nodes absent
	// from the map are in group 0.
	partition map[id.ID]int

	// MaxQueue bounds the number of in-flight events as a safety net
	// against protocol bugs that generate message storms. Zero means the
	// default (64M events). Excess events are dropped and counted in
	// Stats.Overflowed; Send reports them with ErrOverflow.
	MaxQueue int

	// Tap, when non-nil, observes every delivered network message (after
	// liveness filtering, before the process handles it). Scheduler
	// deliveries — local timers — are not wire traffic and are not tapped.
	// Used by tests and the trace recorder; it must not mutate the
	// simulation.
	Tap func(from, to id.ID, m msg.Message)

	// Latency, when non-nil, delays every message by Latency(from, to)
	// abstract ticks. The function may draw from the rand it is handed to
	// model jitter; determinism is preserved. When nil, messages are
	// scheduled with delay 0 — the classic FIFO mode the paper's hop-count
	// experiments run in (they measure hops, not wall time).
	Latency func(from, to id.ID, r *rng.Rand) uint64

	// Intercept, when non-nil, is the fault-injection seam: it observes every
	// network message at the delivery path, after liveness and partition
	// filtering and before Tap and dispatch (timers are local scheduler
	// state, not wire traffic, and are never intercepted). Returning false
	// suppresses the delivery (counted in Stats.FaultDropped). Returning a
	// non-nil replacement delivers it instead of the original — tamper faults
	// mutate a copy, never the original's slices, which other fan-out copies
	// share under the copy-on-write regime. The hook runs on a private struct
	// copy and may call Redeliver to schedule duplicates, delayed copies or
	// replays; redelivered messages bypass the hook (and the latency model),
	// so a delay fault cannot re-delay its own artifact forever. For the
	// determinism contract, any randomness must come from a stream seeded off
	// the run's seed and consumed only here, in delivery order (see package
	// faults). The nil case costs one predictable branch: the no-fault hot
	// path stays allocation-free.
	Intercept func(node id.ID, m *msg.Message) (*msg.Message, bool)
}

// New returns an empty simulator seeded with seed.
func New(seed uint64) *Sim {
	return &Sim{
		rand:     rng.New(seed),
		index:    make(map[id.ID]int32),
		dense:    true,
		watchers: make(map[id.ID]map[id.ID]struct{}),
	}
}

// nodeIndex translates a node identifier to its table index. In the dense
// id regime (see Sim.dense) this is a bounds check and a subtraction; only
// irregular populations pay the map lookup.
func (s *Sim) nodeIndex(nodeID id.ID) (int32, bool) {
	if s.dense {
		if nodeID == 0 || uint64(nodeID) > uint64(len(s.nodes)) {
			return 0, false
		}
		return int32(nodeID - 1), true
	}
	ti, ok := s.index[nodeID]
	return ti, ok
}

// Endpoint is the peer.Env handed to a process at construction time.
type Endpoint struct {
	sim  *Sim
	self id.ID
	idx  int32
	rand *rng.Rand
	sh   *shard // owning shard under the wave engine; nil single-shard
}

var _ peer.Env = (*Endpoint)(nil)

// Self returns the identifier of the endpoint's node.
func (e *Endpoint) Self() id.ID { return e.self }

// Rand returns the node's private random stream.
func (e *Endpoint) Rand() *rng.Rand { return e.rand }

// Send enqueues m for delivery to dst, or returns peer.ErrPeerDown if dst has
// already failed (TCP-style synchronous failure detection). The message is
// handed on by pointer internally: one struct copy lands in the event slab
// and no others are made.
func (e *Endpoint) Send(dst id.ID, m msg.Message) error {
	if e.sh != nil {
		return e.sim.sendSharded(e.sh, e.self, dst, &m)
	}
	return e.sim.send(e.self, dst, &m)
}

// SendRef implements peer.RefSender: Send without the by-value argument copy,
// for the broadcast fan-out paths that push one frozen message to every
// neighbor.
func (e *Endpoint) SendRef(dst id.ID, m *msg.Message) error {
	if e.sh != nil {
		return e.sim.sendSharded(e.sh, e.self, dst, m)
	}
	return e.sim.send(e.self, dst, m)
}

// Probe reports whether a connection to dst could be established.
func (e *Endpoint) Probe(dst id.ID) error {
	s := e.sim
	ti, ok := s.nodeIndex(dst)
	if !ok || !s.aliveAt(ti) || !s.reachable(e.self, dst) {
		if e.sh != nil && s.inWave {
			e.sh.stats.sendFailures++ // shard-local: Probe may run mid-wave
		} else {
			s.stats.SendFailures++
		}
		return fmt.Errorf("probe %v: %w", dst, peer.ErrPeerDown)
	}
	return nil
}

// Now implements peer.Scheduler: the virtual clock in ticks.
func (e *Endpoint) Now() uint64 { return e.sim.now }

// After implements peer.Scheduler: m is delivered to this node's process,
// with from == Self, once delay virtual ticks have elapsed — behind all
// traffic already scheduled at the current instant when delay is zero.
// Infallible: timers bypass the MaxQueue limit (see schedule).
func (e *Endpoint) After(delay uint64, m msg.Message) {
	if e.sh != nil {
		e.sim.scheduleSharded(e.sh, e.self, e.idx, true, delay, &m)
		return
	}
	_ = e.sim.schedule(e.self, e.idx, kindTimer, delay, 0, &m, false)
}

// Every implements peer.Scheduler: m is delivered to this node's process
// every interval ticks, first firing one interval from now. The registration
// lives as long as the simulation; deliveries skip the node while it is
// failed.
func (e *Endpoint) Every(interval uint64, m msg.Message) {
	if interval == 0 {
		interval = 1
	}
	if e.sh != nil {
		e.sim.scheduleSharded(e.sh, e.self, e.idx, false, interval, &m)
		return
	}
	_ = e.sim.schedule(e.self, e.idx, kindPeriodic, interval, interval, &m, false)
}

// Watch registers this node for failure notifications about dst, modelling
// an open TCP connection.
func (e *Endpoint) Watch(dst id.ID) {
	if e.sh != nil {
		// Registration lives on the watcher's own shard: only this node
		// (hence only this shard's goroutine) ever writes it, so watches
		// taken mid-wave need no lock.
		e.sh.watch(e.self, dst)
		return
	}
	ws := e.sim.watchers[dst]
	if ws == nil {
		ws = make(map[id.ID]struct{}, 4)
		e.sim.watchers[dst] = ws
	}
	ws[e.self] = struct{}{}
}

// Unwatch cancels a Watch, modelling closing the connection.
func (e *Endpoint) Unwatch(dst id.ID) {
	if e.sh != nil {
		e.sh.unwatch(e.self, dst)
		return
	}
	if ws := e.sim.watchers[dst]; ws != nil {
		delete(ws, e.self)
		if len(ws) == 0 {
			delete(e.sim.watchers, dst)
		}
	}
}

// Add registers a new live node and constructs its process via factory,
// which receives the node's environment. Add panics on duplicate ids: that
// is always a harness bug. The factory may already use the environment's
// scheduler (periodic protocols register their rounds at construction).
func (s *Sim) Add(nodeID id.ID, factory func(peer.Env) peer.Process) {
	if nodeID.IsNil() {
		panic("netsim: cannot add nil node id")
	}
	if _, dup := s.index[nodeID]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %v", nodeID))
	}
	idx := int32(len(s.nodes))
	if nodeID != id.ID(idx+1) {
		s.dense = false
	}
	ep := &Endpoint{sim: s, self: nodeID, idx: idx, rand: s.rand.Split()}
	if s.sharded() {
		ep.sh = s.shardOf(idx)
	}
	s.nodes = append(s.nodes, simNode{id: nodeID, rand: ep.rand, alive: true})
	s.index[nodeID] = idx
	for int(idx)>>6 >= len(s.aliveBits) {
		s.aliveBits = append(s.aliveBits, 0)
	}
	s.setAliveBit(idx, true)
	s.alive++
	s.nodes[idx].proc = factory(ep)
}

// setAliveBit mirrors simNode.alive into the packed bitset.
func (s *Sim) setAliveBit(idx int32, alive bool) {
	if alive {
		s.aliveBits[idx>>6] |= 1 << (uint(idx) & 63)
	} else {
		s.aliveBits[idx>>6] &^= 1 << (uint(idx) & 63)
	}
}

// aliveAt reports liveness by table index through the cache-resident bitset.
func (s *Sim) aliveAt(idx int32) bool {
	return s.aliveBits[idx>>6]&(1<<(uint(idx)&63)) != 0
}

// send implements Endpoint.Send. m is passed by pointer to avoid struct
// copies on the per-send hot path; the callee stores exactly one copy into
// the event slab and never retains the pointer.
func (s *Sim) send(from, to id.ID, m *msg.Message) error {
	ti, ok := s.nodeIndex(to)
	if !ok || !s.aliveAt(ti) || !s.reachable(from, to) {
		s.stats.SendFailures++
		return fmt.Errorf("send %v->%v: %w", from, to, peer.ErrPeerDown)
	}
	var delay uint64
	if s.Latency != nil {
		delay = s.Latency(from, to, s.rand)
	}
	if err := s.schedule(from, ti, kindMessage, delay, 0, m, false); err != nil {
		return err
	}
	s.stats.Sent++
	s.stats.BytesSent += uint64(m.EncodedSize())
	return nil
}

// Redeliver enqueues m for delivery to dst after delay ticks, bypassing both
// the Intercept hook and the Latency model: it is the re-entry path fault
// injectors use to express delay, duplicate and replay faults without the
// hook re-intercepting its own artifacts. The message counts against
// MaxQueue and the delivery stats but not Stats.Sent — it is a fault
// artifact, not a protocol send. An unknown or dead destination is reported
// as down, matching Send; a node dying afterwards drops the copy at delivery
// time like any in-flight message.
func (s *Sim) Redeliver(from, to id.ID, m msg.Message, delay uint64) error {
	if s.sharded() {
		// Hooks run on the coordinator (the wave pre-pass), never on shard
		// goroutines, so re-entry here always sequences immediately.
		return s.redeliverSharded(from, to, &m, delay)
	}
	ti, ok := s.nodeIndex(to)
	if !ok || !s.aliveAt(ti) {
		return fmt.Errorf("redeliver %v->%v: %w", from, to, peer.ErrPeerDown)
	}
	if err := s.schedule(from, ti, kindMessage, delay, 0, &m, true); err != nil {
		return err
	}
	s.stats.Redelivered++
	return nil
}

// schedule places one event on its heap, drawing its body from the slab
// pool. Only network messages are subject to the MaxQueue limit: they are
// what a storm amplifies, while scheduler deliveries are bounded by protocol
// state (one timer per missing round, one registration per periodic task) —
// dropping those would wedge timer-owning state machines forever (an armed
// Plumtree timer that never fires blocks that round's repair permanently),
// so After/Every stay genuinely infallible as the contract promises.
func (s *Sim) schedule(from id.ID, to int32, kind uint8, delay, interval uint64, m *msg.Message, exempt bool) error {
	if kind == kindMessage {
		limit := s.MaxQueue
		if limit <= 0 {
			limit = 64 << 20
		}
		if s.wire >= limit {
			s.stats.Overflowed++
			return fmt.Errorf("%w: %d messages in flight (message storm?)", ErrOverflow, s.wire)
		}
		s.wire++
	}
	slot := s.newSlot()
	ev := &s.slab[slot]
	ev.from, ev.to, ev.kind, ev.exempt, ev.interval, ev.m = from, to, kind, exempt, interval, *m
	s.seq++
	he := heapEvent{at: s.now + delay, seq: s.seq, slot: slot}
	if kind == kindPeriodic {
		push(&s.pheap, he)
	} else {
		push(&s.heap, he)
	}
	return nil
}

// newSlot takes a free slab slot, growing the slab when the pool is dry.
func (s *Sim) newSlot() int32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return slot
	}
	s.slab = append(s.slab, event{})
	return int32(len(s.slab) - 1)
}

// Now returns the virtual clock in ticks. It advances whenever an event with
// a later timestamp is processed (latency-mode traffic, scheduler timers) and
// jumps to the end of every RunFor window.
func (s *Sim) Now() uint64 { return s.now }

// The event heaps are 4-ary: half the sift-down depth of a binary heap and
// all four children of a node adjacent in memory (96 of 128 cache-line
// bytes), which matters when a 100k-node broadcast keeps hundreds of
// thousands of records in flight. (at, seq) is a strict total order — seq is
// unique — so the pop sequence is identical to any other correct min-heap's
// and determinism is untouched by the arity.

// push inserts he into h (min-ordered by at, then seq). An event scheduled
// behind everything at its instant (the FIFO common case: monotonically
// increasing seq) terminates after a single parent comparison.
func push(h *[]heapEvent, he heapEvent) {
	*h = append(*h, he)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes the earliest event record from h.
func pop(h *[]heapEvent) heapEvent {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		first := 4*i + 1
		if first >= len(s) {
			return top
		}
		smallest := i
		end := first + 4
		if end > len(s) {
			end = len(s)
		}
		for c := first; c < end; c++ {
			if eventLess(s[c], s[smallest]) {
				smallest = c
			}
		}
		if smallest == i {
			return top
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
}

func eventLess(a, b heapEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Inject enqueues a message from outside the simulation (the experiment
// harness), e.g. the initial JOIN or a broadcast trigger.
func (s *Sim) Inject(from, to id.ID, m msg.Message) error {
	if s.sharded() {
		return s.sendSharded(nil, from, to, &m)
	}
	return s.send(from, to, &m)
}

// flushDowns delivers pending connection-reset notifications to live
// watchers. Notifications run before queued messages so that a batch of
// simultaneous failures is observed atomically, as the paper's methodology
// induces them.
func (s *Sim) flushDowns() {
	if s.sharded() {
		s.flushDownsSharded()
		return
	}
	for len(s.pendingDowns) > 0 {
		victim := s.pendingDowns[0]
		s.pendingDowns = s.pendingDowns[1:]
		ws := s.watchers[victim]
		if len(ws) == 0 {
			continue
		}
		vDead := true
		if vi, ok := s.nodeIndex(victim); ok && s.nodes[vi].alive {
			vDead = false
		}
		// Deterministic notification order.
		watcherIDs := make([]id.ID, 0, len(ws))
		for w := range ws {
			watcherIDs = append(watcherIDs, w)
		}
		sortIDs(watcherIDs)
		for _, w := range watcherIDs {
			wi, ok := s.nodeIndex(w)
			if !ok || !s.nodes[wi].alive {
				delete(ws, w) // dead watchers never hear anything again
				continue
			}
			// A crash resets every connection; a partition resets only the
			// links that cross the cut.
			if !vDead && s.reachable(w, victim) {
				continue
			}
			delete(ws, w)
			if obs, ok := s.nodes[wi].proc.(peer.FailureObserver); ok {
				obs.OnPeerDown(victim)
			}
		}
		if len(ws) == 0 {
			delete(s.watchers, victim)
		}
	}
}

// fire processes one popped event, advancing the clock to its timestamp.
// It returns 1 when a process received a delivery, 0 when the event was
// dropped (dead or unreachable destination).
//
// The hot path delivers straight out of the event slab: the only Message
// copy made here is the Deliver argument itself. The slot is released after
// delivery — handlers scheduling new traffic therefore cannot recycle it
// mid-call, and the ev pointer is never dereferenced again once a callee
// (schedule, Deliver) could have grown the slab under it.
func (s *Sim) fire(he heapEvent) int {
	ev := &s.slab[he.slot]
	kind := ev.kind
	from := ev.from
	if kind == kindMessage {
		s.wire--
	}
	if he.at > s.now {
		s.now = he.at
	}
	dst := &s.nodes[ev.to]
	if !dst.alive {
		switch kind {
		case kindMessage:
			// Destination died while the message was in flight.
			s.stats.Dropped++
		default:
			// Scheduler state survives the failure: park the timer or
			// registration for Revive instead of dropping it (see simNode).
			dst.parked = append(dst.parked, *ev)
		}
		s.releaseSlot(he.slot)
		return 0
	}
	if kind == kindPeriodic {
		// Re-arm before delivering so the cadence is unaffected by whatever
		// the handler schedules. A round whose deadline the clock has
		// already passed (Drain advanced time while the periodic schedule
		// was frozen) drops the missed firings, like time.Ticker.
		next := he.at + ev.interval
		if next <= s.now {
			next = s.now + ev.interval
		}
		evCopy := *ev
		s.seq++
		slot := s.newSlot() // may grow the slab: refresh ev below
		s.slab[slot] = evCopy
		push(&s.pheap, heapEvent{at: next, seq: s.seq, slot: slot})
		ev = &s.slab[he.slot]
	}
	if kind == kindMessage {
		if !s.reachable(from, dst.id) {
			s.stats.Dropped++ // the network cut while in flight
			s.releaseSlot(he.slot)
			return 0
		}
		if s.Intercept != nil && !ev.exempt {
			return s.fireIntercepted(he, ev.to, from)
		}
		if s.Tap != nil {
			s.Tap(from, dst.id, ev.m)
		}
	}
	dst.proc.Deliver(from, ev.m)
	// ev is stale here (Deliver may have scheduled and grown the slab).
	s.releaseSlot(he.slot)
	if kind == kindMessage {
		s.stats.Delivered++
	}
	return 1
}

// fireIntercepted runs the Intercept hook for one message delivery. The hook
// operates on a private struct copy: it may mutate or replace that copy but
// never the slab slot, whose slices are shared copy-on-write with every other
// copy of a fan-out — and the copy also keeps the delivered message stable
// when the hook's own Redeliver calls grow the slab under the slot.
func (s *Sim) fireIntercepted(he heapEvent, toIdx int32, from id.ID) int {
	hooked := s.slab[he.slot].m
	s.releaseSlot(he.slot)
	dstID := s.nodes[toIdx].id
	repl, deliver := s.Intercept(dstID, &hooked)
	if !deliver {
		s.stats.FaultDropped++
		return 0
	}
	if repl != nil {
		hooked = *repl
	}
	if s.Tap != nil {
		s.Tap(from, dstID, hooked)
	}
	s.nodes[toIdx].proc.Deliver(from, hooked)
	s.stats.Delivered++
	return 1
}

// releaseSlot returns a slab slot to the free list, nil-ing only the
// pointer-bearing fields (the GC cares about nothing else, and schedule
// fully reassigns every field on reuse) — cheaper than zeroing the whole
// 160-byte event.
func (s *Sim) releaseSlot(slot int32) {
	m := &s.slab[slot].m
	m.Nodes, m.Entries, m.Payload, m.Directory = nil, nil, nil, nil
	s.free = append(s.free, slot)
}

// Drain delivers events until no messages or one-shot timers remain and
// returns the number of deliveries made. Deliveries may enqueue further
// events; those are processed too, with the virtual clock advancing to each
// event's timestamp. The periodic schedule is frozen for the duration: a
// Drain is the instantaneous-convergence operator of the paper's
// methodology ("no membership cycles in between"), and letting
// self-sustaining rounds fire here would keep a latency-model run from ever
// quiescing. Periodic rounds fire in RunFor.
func (s *Sim) Drain() int {
	if s.sharded() {
		return s.drainSharded()
	}
	delivered := 0
	s.flushDowns()
	for len(s.heap) > 0 {
		delivered += s.fire(pop(&s.heap))
		s.flushDowns()
	}
	return delivered
}

// RunFor advances virtual time by d ticks, processing every event — periodic
// rounds included, interleaved in timestamp order with traffic — that falls
// inside the window, and returns the number of deliveries made. The clock
// lands exactly on Now()+d, so back-to-back RunFor calls tile time without
// gaps; traffic scheduled beyond the window stays pending for the next
// RunFor or Drain.
func (s *Sim) RunFor(d uint64) int {
	if s.sharded() {
		return s.runForSharded(d)
	}
	target := s.now + d
	delivered := 0
	s.flushDowns()
	for {
		hasOnce := len(s.heap) > 0 && s.heap[0].at <= target
		hasPeriodic := len(s.pheap) > 0 && s.pheap[0].at <= target
		var he heapEvent
		switch {
		case hasOnce && (!hasPeriodic || eventLess(s.heap[0], s.pheap[0])):
			he = pop(&s.heap)
		case hasPeriodic:
			he = pop(&s.pheap)
		default:
			if target > s.now {
				s.now = target
			}
			return delivered
		}
		delivered += s.fire(he)
		s.flushDowns()
	}
}

// RunCycle executes one membership protocol cycle: every live node's OnCycle
// hook runs once, in seeded random order, with the event heap drained
// after each hook (PeerSim cycle-driven semantics). Protocols that schedule
// their own periodic rounds are driven with RunFor instead.
func (s *Sim) RunCycle() {
	alive := s.AliveIDs()
	s.rand.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	for _, nodeID := range alive {
		ni, _ := s.nodeIndex(nodeID)
		n := &s.nodes[ni]
		if !n.alive {
			continue // may have "failed" mid-cycle in churn scenarios
		}
		n.proc.OnCycle()
		s.Drain()
	}
}

// RunCycles executes count cycles.
func (s *Sim) RunCycles(count int) {
	for i := 0; i < count; i++ {
		s.RunCycle()
	}
}

// Fail marks nodeID as crashed. In-flight messages to it are dropped,
// future sends to it fail with peer.ErrPeerDown, and nodes watching it (open
// TCP connections) receive an OnPeerDown notification at the next Drain.
func (s *Sim) Fail(nodeID id.ID) {
	ni, ok := s.nodeIndex(nodeID)
	if !ok || !s.nodes[ni].alive {
		return
	}
	s.nodes[ni].alive = false
	s.setAliveBit(ni, false)
	s.alive--
	if s.sharded() {
		if s.watchedSharded(nodeID) {
			s.pendingDowns = append(s.pendingDowns, nodeID)
		}
	} else if len(s.watchers[nodeID]) > 0 {
		s.pendingDowns = append(s.pendingDowns, nodeID)
	}
}

// Revive marks a previously failed node as live again. The process state is
// whatever it was at crash time; protocols that need a clean restart should
// be re-added under a fresh id instead. Scheduler events that came due
// during the outage are re-scheduled: parked one-shot timers fire behind
// the traffic now in flight, parked periodic registrations resume one
// interval from now.
func (s *Sim) Revive(nodeID id.ID) {
	ni, ok := s.nodeIndex(nodeID)
	if !ok || s.nodes[ni].alive {
		return
	}
	s.nodes[ni].alive = true
	s.setAliveBit(ni, true)
	s.alive++
	parked := s.nodes[ni].parked
	s.nodes[ni].parked = nil
	for _, ev := range parked {
		s.seq++
		if s.sharded() {
			s.unparkSharded(&ev)
			continue
		}
		slot := s.newSlot()
		s.slab[slot] = ev
		if ev.kind == kindPeriodic {
			push(&s.pheap, heapEvent{at: s.now + ev.interval, seq: s.seq, slot: slot})
		} else {
			push(&s.heap, heapEvent{at: s.now, seq: s.seq, slot: slot})
		}
	}
}

// Alive reports whether nodeID exists and has not failed.
func (s *Sim) Alive(nodeID id.ID) bool {
	ni, ok := s.nodeIndex(nodeID)
	return ok && s.nodes[ni].alive
}

// AliveIDs returns the identifiers of all live nodes in insertion order.
func (s *Sim) AliveIDs() []id.ID {
	out := make([]id.ID, 0, len(s.nodes))
	for i := range s.nodes {
		if s.nodes[i].alive {
			out = append(out, s.nodes[i].id)
		}
	}
	return out
}

// IDs returns all node identifiers (live and failed) in insertion order.
func (s *Sim) IDs() []id.ID {
	out := make([]id.ID, len(s.nodes))
	for i := range s.nodes {
		out[i] = s.nodes[i].id
	}
	return out
}

// AliveCount returns the number of live nodes in O(1).
func (s *Sim) AliveCount() int { return s.alive }

// RandomAlive returns a uniformly random live node, drawing from r until a
// live one is hit (expected draws: population/alive). It returns (Nil,
// false) when no node is alive. Unlike AliveIDs it allocates nothing, which
// matters to harness paths invoked once per broadcast.
func (s *Sim) RandomAlive(r *rng.Rand) (id.ID, bool) {
	if s.alive == 0 || len(s.nodes) == 0 {
		return id.Nil, false
	}
	for {
		n := &s.nodes[r.Intn(len(s.nodes))]
		if n.alive {
			return n.id, true
		}
	}
}

// Process returns the process hosted at nodeID, or nil if unknown.
func (s *Sim) Process(nodeID id.ID) peer.Process {
	ni, ok := s.nodeIndex(nodeID)
	if !ok {
		return nil
	}
	return s.nodes[ni].proc
}

// Rand returns the simulator's root random stream (used by harnesses to pick
// broadcast sources, failure victims, ...).
func (s *Sim) Rand() *rng.Rand { return s.rand }

// Stats returns a copy of the simulator's counters.
func (s *Sim) Stats() Stats {
	if s.sharded() {
		return s.statsSharded()
	}
	return s.stats
}

// Pending returns the number of queued, undelivered messages and one-shot
// timers (periodic registrations are standing and not counted).
func (s *Sim) Pending() int {
	if s.sharded() {
		return s.pendingSharded()
	}
	return len(s.heap)
}

// reachable reports whether traffic may flow from a to b under the current
// partition (the harness is responsible for injecting reset notifications
// when it cuts the network; see Partition).
func (s *Sim) reachable(a, b id.ID) bool {
	if s.partition == nil {
		return true
	}
	return s.partition[a] == s.partition[b]
}

// Partition splits the network: every node is assigned a group by assign
// (nodes mapped to the same integer can talk; crossing traffic fails like a
// crashed destination). Watched cross-partition links receive reset
// notifications at the next Drain, just as crashes do — a network cut looks
// exactly like peer death to TCP. Call Heal to remove the partition.
func (s *Sim) Partition(assign func(id.ID) int) {
	s.partition = make(map[id.ID]int, len(s.nodes))
	for i := range s.nodes {
		s.partition[s.nodes[i].id] = assign(s.nodes[i].id)
	}
	// Break watched links that now cross the cut.
	if s.sharded() {
		s.partitionBreakSharded()
		return
	}
	for watchedNode, ws := range s.watchers {
		for watcher := range ws {
			if !s.reachable(watcher, watchedNode) {
				s.pendingDowns = append(s.pendingDowns, watchedNode)
				break
			}
		}
	}
}

// Heal removes the current network partition. Overlay links do not reappear
// by themselves: the membership protocol has to re-merge the components.
func (s *Sim) Heal() {
	s.partition = nil
}

// sortIDs sorts identifiers ascending (insertion sort: watcher sets are tiny).
func sortIDs(xs []id.ID) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
