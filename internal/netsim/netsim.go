// Package netsim is a deterministic discrete-event simulator for
// peer-to-peer protocols: this repository's stand-in for PeerSim, the
// simulator used by the paper's evaluation (§5).
//
// Model:
//
//   - Nodes are identified by id.ID and host a peer.Process. The n-th node
//     added is id.ID(n), so a node's id is its position in the node table:
//     every per-node datum — liveness, parked timers, open connections
//     (Watch), partition group — lives in that table or a slice beside it,
//     and the hot delivery path is pure slice access, which is what makes
//     million-node populations practical.
//   - There is one event engine (shards.go): deliveries are ordered by
//     (virtual time, send sequence), kept in per-instant FIFO bucket vectors
//     and delivered instant by instant, wave by wave, on one shard (New) or
//     on several that run a wave's deliveries in parallel (NewSharded) and
//     merge its output back into the one canonical order. Without a latency
//     model every message is scheduled with delay 0 and the order is plain
//     FIFO; with a Latency function installed, messages are delayed per link
//     and the virtual clock advances to each instant. Message bodies live in
//     recycled per-wave arenas and a free-listed hold slab, so a long run
//     allocates no per-event garbage beyond the messages themselves.
//   - The simulator implements peer.Scheduler: protocols schedule one-shot
//     timers (After) and periodic rounds (Every) as self-addressed messages
//     in the same order, interleaved in time with network traffic.
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
// A Sim is driven from one goroutine; experiments own one Sim each.
package netsim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/rng"
)

// Event kinds: wire traffic versus scheduler deliveries.
const (
	kindMessage  uint8 = iota // network message (counted in wire stats, Tapped)
	kindTimer                 // one-shot scheduler delivery (peer.Scheduler.After)
	kindPeriodic              // periodic scheduler delivery (re-arms itself)
)

// simNode is the simulator's per-node bookkeeping, stored by value in a
// dense index-ordered table; the node at index i is id.ID(i+1) (see idAt).
type simNode struct {
	proc  peer.Process
	alive bool
	// downAt is the 1-based position of the node in the queue of pending
	// victims while flushDowns collects their watchers, and 0 otherwise.
	downAt int32

	// parked holds scheduler events (one-shot timers, periodic
	// registrations) that came due while the node was failed. They are
	// re-scheduled on Revive: dropping them would wedge timer-owning state
	// machines forever, and re-arming a dead node's periodic rounds would
	// burn engine work delivering nothing for the rest of the run. A parked
	// event keeps its message in its shard's hold slab.
	parked []sevent

	// watches lists the nodes this one holds an open connection to (Watch),
	// in no particular order. Only the node itself writes it — on its own
	// shard mid-wave, or on the coordinator — so a watch needs no lock.
	watches []id.ID
}

// idAt returns the identifier of the node at table index idx.
func idAt[I int | int32](idx I) id.ID { return id.ID(idx) + 1 }

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
	// Overflowed is always 0: the simulator queues every message it
	// accepts, and only the TCP transport sheds. The field stays until the
	// benchmark stops reading it; the golden trace hashes it too.
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
	nodes []simNode // dense node table in insertion order
	alive int       // live-node count, maintained by Add/Fail/Revive

	// aliveBits packs per-node liveness one bit per table index. The
	// per-send liveness check is the one random access the hot dispatch
	// path cannot avoid; against the 72-byte simNode records a 100k-node
	// population costs a DRAM miss per send, while the bitset (12.5KB)
	// stays cache-resident.
	aliveBits []uint64

	stats Stats

	now uint64 // virtual clock
	seq uint64 // scheduling sequence for deterministic tie-breaking

	// shards partition the node table (dense index mod shard count) and hold
	// every pending event; see shards.go. One shard unless NewSharded asked
	// for more.
	shards []shard
	// inWave is true while the shards are delivering a wave: endpoint sends
	// and timer registrations record into per-shard output logs instead of
	// sequencing immediately. wave counts waves over the life of the Sim; its
	// parity selects the arena the wave's output is written to.
	inWave bool
	wave   uint64
	// instantActive is true while runInstant is processing instant: traffic
	// due at that instant joins its next wave rather than a bucket.
	instantActive bool
	instant       uint64
	// waveParallel gates parallel waves: more than one shard on a multi-P
	// runtime (captured at construction). bar is the spinning barrier the
	// coordinator and the shard workers meet at once per parallel wave;
	// workersUp says the workers are running (only ever inside a Drain or
	// RunFor call) and workersWG joins them when the call returns. spawn is
	// startShardWorker as a func value (see there).
	waveParallel bool
	workersUp    bool
	bar          barrier
	workersWG    sync.WaitGroup
	spawn        func()

	// pendingDowns queues failed or cut-off nodes, in the order they failed
	// or were cut off. Their watchers (see simNode.watches) that implement
	// peer.FailureObserver are owed an OnPeerDown: a TCP reset, delivered at
	// the next Drain.
	pendingDowns []id.ID

	// partition, when non-nil, assigns nodes to network partitions by table
	// index: traffic between different partition groups fails exactly like
	// traffic to a crashed node (TCP connects time out across the cut).
	// Nodes beyond its end — added after Partition — are in group 0.
	partition []int

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
	// so a delay fault cannot re-delay its own artifact forever. The hook runs
	// in the wave pre-pass (see shards.go), for a whole wave before any of it
	// is delivered: what it Redelivers is sequenced at hook time, ahead of the
	// output of that wave's handlers. For the determinism contract, any
	// randomness must come from a stream seeded off the run's seed and
	// consumed only here, in delivery order (see package faults). The nil case
	// costs one predictable branch: the no-fault hot path stays
	// allocation-free.
	Intercept func(node id.ID, m *msg.Message) (*msg.Message, bool)
}

// New returns an empty simulator seeded with seed, with one shard.
func New(seed uint64) *Sim { return NewSharded(seed, 1) }

// Index translates a node identifier to its table index — its position in
// Add order, which harnesses key their own per-node tables by — and reports
// whether the node exists. Node id.ID(n) is the n-th added (see Add), so
// this is a bounds check and a subtraction.
func (s *Sim) Index(nodeID id.ID) (int32, bool) {
	if nodeID == 0 || uint64(nodeID) > uint64(len(s.nodes)) {
		return 0, false
	}
	return int32(nodeID - 1), true
}

// Endpoint is the peer.Env handed to a process at construction time.
type Endpoint struct {
	sim  *Sim
	self id.ID
	idx  int32
	rand rng.Rand // by value: a draw reads the state in the endpoint's own lines
	sh   *shard   // the shard that owns the node
}

var (
	_ peer.Env          = (*Endpoint)(nil)
	_ peer.FrozenBodies = (*Endpoint)(nil)
)

// Self returns the identifier of the endpoint's node.
func (e *Endpoint) Self() id.ID { return e.self }

// Rand returns the node's private random stream.
func (e *Endpoint) Rand() *rng.Rand { return &e.rand }

// Send enqueues m for delivery to dst, or returns peer.ErrPeerDown if dst has
// already failed (TCP-style synchronous failure detection). The message is
// handed on by pointer internally: one struct copy lands in the engine's
// message store and no others are made.
func (e *Endpoint) Send(dst id.ID, m msg.Message) error {
	return e.sim.send(e.sh, e.self, dst, &m)
}

// SendRef implements peer.RefSender: Send without the by-value argument copy,
// for the broadcast fan-out paths that push one frozen message to every
// neighbor.
func (e *Endpoint) SendRef(dst id.ID, m *msg.Message) error {
	return e.sim.send(e.sh, e.self, dst, m)
}

// FrozenBodies implements peer.FrozenBodies: the engine never writes a body
// it delivers, and a payload slice lives as long as its last holder, so a
// receiver may keep it.
func (e *Endpoint) FrozenBodies() {}

// Probe reports whether a connection to dst could be established.
func (e *Endpoint) Probe(dst id.ID) error {
	s := e.sim
	ti, ok := s.Index(dst)
	if !ok || !s.aliveAt(ti) || !s.reachable(e.self, dst) {
		s.countSendFailure(e.sh)
		return fmt.Errorf("probe %v: %w", dst, peer.ErrPeerDown)
	}
	return nil
}

// Now implements peer.Scheduler: the virtual clock in ticks.
func (e *Endpoint) Now() uint64 { return e.sim.now }

// After implements peer.Scheduler: m is delivered to this node's process,
// with from == Self, once delay virtual ticks have elapsed — behind all
// traffic already scheduled at the current instant when delay is zero.
// Infallible, like every scheduler call.
func (e *Endpoint) After(delay uint64, m msg.Message) {
	e.sim.schedule(e.sh, e.self, e.idx, kindTimer, delay, &m)
}

// Every implements peer.Scheduler: m is delivered to this node's process
// every interval ticks, first firing one interval from now. The registration
// lives as long as the simulation; deliveries skip the node while it is
// failed.
func (e *Endpoint) Every(interval uint64, m msg.Message) {
	e.sim.schedule(e.sh, e.self, e.idx, kindPeriodic, max(interval, 1), &m)
}

// Watch registers this node for failure notifications about dst, modelling
// an open TCP connection. The registration lives in the watcher's own node
// record (simNode.watches): only this node, hence only its shard's goroutine,
// ever writes it, so watches taken mid-wave need no lock.
func (e *Endpoint) Watch(dst id.ID) {
	n := &e.sim.nodes[e.idx]
	if !slices.Contains(n.watches, dst) {
		n.watches = append(n.watches, dst)
	}
}

// Unwatch cancels a Watch, modelling closing the connection.
func (e *Endpoint) Unwatch(dst id.ID) { e.sim.nodes[e.idx].unwatch(dst) }

// unwatch drops dst from the node's watches and reports whether it was there.
func (n *simNode) unwatch(dst id.ID) bool {
	i := slices.Index(n.watches, dst)
	if i < 0 {
		return false
	}
	last := len(n.watches) - 1
	n.watches[i] = n.watches[last]
	n.watches = n.watches[:last]
	return true
}

// Add registers a new live node and constructs its process via factory,
// which receives the node's environment. The n-th node added must be
// id.ID(n) — every cluster builder numbers nodes that way, and it makes a
// node's id its table position — and Add panics otherwise: that is always a
// harness bug. The factory may already use the environment's scheduler
// (periodic protocols register their rounds at construction).
func (s *Sim) Add(nodeID id.ID, factory func(peer.Env) peer.Process) {
	idx := int32(len(s.nodes))
	if nodeID != idAt(idx) {
		panic(fmt.Sprintf("netsim: node %v added in place %d: the n-th node added must be id.ID(n)", nodeID, idx+1))
	}
	ep := &Endpoint{sim: s, self: nodeID, idx: idx, rand: *s.rand.Split(), sh: s.shardOf(idx)}
	s.nodes = append(s.nodes, simNode{alive: true})
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

// Now returns the virtual clock in ticks. It advances whenever an event with
// a later timestamp is processed (latency-mode traffic, scheduler timers) and
// jumps to the end of every RunFor window.
func (s *Sim) Now() uint64 { return s.now }

// Inject enqueues a message from outside the simulation (the experiment
// harness), e.g. the initial JOIN or a broadcast trigger.
func (s *Sim) Inject(from, to id.ID, m msg.Message) error {
	return s.send(nil, from, to, &m)
}

// flushDowns delivers pending connection-reset notifications to live
// watchers: victims in the order they were queued, each victim's watchers in
// ascending id order. Notifications run before queued messages so that a
// batch of simultaneous failures is observed atomically, as the paper's
// methodology induces them. One pass over the node table collects the
// watchers up front, which is exact: a handler cannot watch a pending victim
// (its Send there fails before the protocol adds the link), only unwatch one.
func (s *Sim) flushDowns() {
	if len(s.pendingDowns) == 0 {
		return
	}
	victims := s.pendingDowns
	s.pendingDowns = nil
	for k := len(victims) - 1; k >= 0; k-- { // a victim queued twice keeps its first place
		s.nodes[victims[k]-1].downAt = int32(k + 1)
	}
	type link struct{ k, w int32 } // victims[k-1] is watched by the node at index w
	var links []link
	for wi := range s.nodes {
		for _, v := range s.nodes[wi].watches {
			if vi, ok := s.Index(v); ok && s.nodes[vi].downAt != 0 {
				links = append(links, link{s.nodes[vi].downAt, int32(wi)})
			}
		}
	}
	for _, v := range victims {
		s.nodes[v-1].downAt = 0
	}
	// Collected in ascending watcher order, which a stable sort keeps.
	slices.SortStableFunc(links, func(a, b link) int { return int(a.k - b.k) })
	for _, l := range links {
		victim, w := victims[l.k-1], &s.nodes[l.w]
		// A crash resets every connection; a partition resets only the links
		// that cross the cut.
		if w.alive && s.Alive(victim) && s.reachable(idAt(l.w), victim) {
			continue
		}
		// An earlier handler may have dropped the watch, and dead watchers
		// never hear anything again.
		if !w.unwatch(victim) || !w.alive {
			continue
		}
		if obs, ok := w.proc.(peer.FailureObserver); ok {
			obs.OnPeerDown(victim)
		}
	}
}

// Drain delivers events until no messages or one-shot timers remain and
// returns the number of deliveries made. Deliveries may enqueue further
// events; those are processed too, with the virtual clock advancing to each
// event's timestamp. The periodic schedule is frozen for the duration: a
// Drain is the instantaneous-convergence operator of the paper's
// methodology ("no membership cycles in between"), and letting
// self-sustaining rounds fire here would keep a latency-model run from ever
// quiescing. Periodic rounds fire in RunFor.
func (s *Sim) Drain() int { return s.run(math.MaxUint64, false) }

// RunFor advances virtual time by d ticks, processing every event — periodic
// rounds included, interleaved in timestamp order with traffic — that falls
// inside the window, and returns the number of deliveries made. The clock
// lands exactly on Now()+d, so back-to-back RunFor calls tile time without
// gaps; traffic scheduled beyond the window stays pending for the next
// RunFor or Drain.
func (s *Sim) RunFor(d uint64) int {
	target := s.now + d
	delivered := s.run(target, true)
	s.now = max(s.now, target)
	return delivered
}

// RunCycle executes one membership protocol cycle: every live node's OnCycle
// hook runs once, in seeded random order, with the pending events drained
// after each hook (PeerSim cycle-driven semantics). Protocols that schedule
// their own periodic rounds are driven with RunFor instead.
func (s *Sim) RunCycle() {
	alive := s.AliveIDs()
	s.rand.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	for _, nodeID := range alive {
		n := &s.nodes[nodeID-1]
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
	ni, ok := s.Index(nodeID)
	if !ok || !s.nodes[ni].alive {
		return
	}
	s.nodes[ni].alive = false
	s.setAliveBit(ni, false)
	s.alive--
	s.pendingDowns = append(s.pendingDowns, nodeID)
}

// Revive marks a previously failed node as live again. The process state is
// whatever it was at crash time; protocols that need a clean restart should
// be re-added under a fresh id instead. Scheduler events that came due
// during the outage are re-scheduled: parked one-shot timers fire behind
// the traffic now in flight, parked periodic registrations resume one
// interval from now.
func (s *Sim) Revive(nodeID id.ID) {
	ni, ok := s.Index(nodeID)
	if !ok || s.nodes[ni].alive {
		return
	}
	s.nodes[ni].alive = true
	s.setAliveBit(ni, true)
	s.alive++
	parked := s.nodes[ni].parked
	s.nodes[ni].parked = nil
	for _, se := range parked {
		s.seq++
		se.at, se.seq = s.now, s.seq
		if se.kind == kindPeriodic {
			se.at += se.interval
			s.enqueuePeriodic(se)
		} else {
			s.enqueueAt(se)
		}
	}
}

// Alive reports whether nodeID exists and has not failed.
func (s *Sim) Alive(nodeID id.ID) bool {
	ni, ok := s.Index(nodeID)
	return ok && s.nodes[ni].alive
}

// AliveIDs returns the identifiers of all live nodes in insertion order.
func (s *Sim) AliveIDs() []id.ID {
	out := make([]id.ID, 0, len(s.nodes))
	for i := range s.nodes {
		if s.nodes[i].alive {
			out = append(out, idAt(i))
		}
	}
	return out
}

// IDs returns all node identifiers (live and failed) in insertion order.
func (s *Sim) IDs() []id.ID {
	out := make([]id.ID, len(s.nodes))
	for i := range out {
		out[i] = idAt(i)
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
		if i := r.Intn(len(s.nodes)); s.nodes[i].alive {
			return idAt(i), true
		}
	}
}

// Rand returns the simulator's root random stream (used by harnesses to pick
// broadcast sources, failure victims, ...).
func (s *Sim) Rand() *rng.Rand { return s.rand }

// Stats returns a copy of the simulator's counters: the coordinator's plus
// every shard's slice of them.
func (s *Sim) Stats() Stats {
	out := s.stats
	for i := range s.shards {
		st := &s.shards[i].stats
		out.Sent += st.Sent
		out.Delivered += st.Delivered
		out.Dropped += st.Dropped
		out.SendFailures += st.SendFailures
		out.BytesSent += st.BytesSent
	}
	return out
}

// Pending returns the number of queued, undelivered messages and one-shot
// timers (periodic registrations are standing and not counted).
func (s *Sim) Pending() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].queued
	}
	return total
}

// reachable reports whether traffic may flow from a to b under the current
// partition (the harness is responsible for injecting reset notifications
// when it cuts the network; see Partition).
func (s *Sim) reachable(a, b id.ID) bool {
	if s.partition == nil {
		return true
	}
	return s.group(a) == s.group(b)
}

// group returns nodeID's partition group: 0 for a node Partition did not
// assign, or an id outside the table (a harness Inject's sender).
func (s *Sim) group(nodeID id.ID) int {
	if i, ok := s.Index(nodeID); ok && int(i) < len(s.partition) {
		return s.partition[i]
	}
	return 0
}

// Partition splits the network: every node is assigned a group by assign
// (nodes mapped to the same integer can talk; crossing traffic fails like a
// crashed destination). Watched cross-partition links receive reset
// notifications at the next Drain, just as crashes do — a network cut looks
// exactly like peer death to TCP. Call Heal to remove the partition.
func (s *Sim) Partition(assign func(id.ID) int) {
	s.partition = make([]int, len(s.nodes))
	for i := range s.partition {
		s.partition[i] = assign(idAt(i))
	}
	// Break watched links that now cross the cut, in ascending victim order.
	var broken []id.ID
	for wi := range s.nodes {
		for _, v := range s.nodes[wi].watches {
			if _, ok := s.Index(v); ok && !s.reachable(idAt(wi), v) {
				broken = append(broken, v)
			}
		}
	}
	slices.Sort(broken)
	s.pendingDowns = append(s.pendingDowns, slices.Compact(broken)...)
}

// Heal removes the current network partition. Overlay links do not reappear
// by themselves: the membership protocol has to re-merge the components.
func (s *Sim) Heal() {
	s.partition = nil
}
