// The wave/barrier event engine. The node table is partitioned by dense index
// (idx mod shards) — one shard unless NewSharded asked for more — every
// shard keeps its pending events in per-instant FIFO bucket vectors, and
// virtual time advances as a sequence of deterministic barrier steps:
//
//  1. Wave formation (coordinator): the wave is every event due at the
//     current instant T — the shard's bucket for T plus, in RunFor, the
//     periodic rounds due at T — in seq order.
//  2. Hook pre-pass (coordinator, only when Tap or Intercept is installed):
//     the wave is walked across all shards in global seq order and the
//     fault-injection hook and trace tap run serially, before any of the
//     wave is delivered. This is what keeps stateful injectors
//     byte-deterministic: hook state evolves in a canonical order no matter
//     how many shards execute the deliveries. It is also the Redeliver
//     contract: what a hook re-injects is sequenced at hook time, ahead of
//     the output of the wave's own handlers.
//  3. Delivery, in parallel across shards: each shard delivers its slice of
//     the wave to its own nodes, in seq order per node. Handler output —
//     sends, timers, periodic re-arms — is not enqueued yet; it is recorded
//     in a per-shard output log tagged (parent seq, birth index).
//  4. Canonical merge (coordinator): the shards' output logs, each already
//     sorted by (parent seq, birth index), are S-way merged in that order;
//     every record is assigned the next global sequence number, latency
//     delays are drawn from the root stream in merge order, and the event
//     is routed to its destination shard's bucket. Delay-0 output forms the
//     next wave at the same instant; the loop repeats until the instant
//     quiesces, then time advances to the next bucket.
//
// Because a serial run in (at, seq) order — one event at a time, every Send
// sequenced as it is made — is exactly "waves processed in (parent seq,
// birth) order", the merge reproduces that run's total delivery order per
// destination node: with the same seed a run is byte-identical at every
// shard count, and identical to the naive sorted queue the package's tests
// keep as the oracle (oracle_test.go).
//
// Data path. An event record (sevent in a bucket or wave, outRec in an output
// log) is 48–56 bytes: routing fields plus a *msg.Message. The 160-byte message
// body is written once and never moved:
//
//   - A handler's output is written into the sending shard's arena for the
//     current wave — chunked, so entries never move. Two arenas ping-pong:
//     wave k writes arena k&1 while the destinations of wave k-1's output
//     read arena (k-1)&1. Delay-0 output is delivered in wave k+1 straight
//     from the arena; the arena is reset, with its slots cleared so no
//     payload stays pinned, by its own shard at the start of wave k+2.
//     Consecutive sends of a shallowly identical message (see sameMessage)
//     share one entry: a flood forward to four neighbours writes one body.
//   - Everything that outlives the next wave — timers, latency-model
//     traffic, periodic registrations — and everything sequenced from
//     coordinator context — harness and OnPeerDown sends, Redeliver, hook
//     replacements, revived parked events — is copied into a free-listed
//     hold slab owned by the destination shard. Slots are taken only on the
//     coordinator (between waves) and released only by the owning shard after
//     it delivered or dropped the event, so the slab needs no lock. A
//     periodic registration keeps its slot across re-arms.
//
// Workers. With more than one shard on a multi-P runtime, waves of at least
// parallelMinWave events are delivered in parallel: the coordinator runs
// shard 0's slice itself and shards 1..S-1 each have a worker goroutine,
// started at the first such wave of a Drain or RunFor call and stopped and
// joined before the call returns. Sim needs no Close and leaks nothing
// between calls. Coordinator and workers meet at a spinning barrier (see
// barrier): a wave is published by bumping a generation counter and joined by
// polling a done count, so no goroutine is parked and woken per wave. Both
// sides yield their P with runtime.Gosched every spinYield polls, so a worker
// polling through the coordinator's serial merge never starves another
// goroutine of a P — not even with more shards than Ps.
//
// Shared mutable state during a parallel wave is confined to: the shard's
// own buckets/outputs/arenas/stats, the destination node's process state
// (every node belongs to exactly one shard), and whatever the host
// application's Delivery callbacks touch — the host keeps that state per
// shard too (ShardOf tells it which; the sim harness binds every node's
// callback to its shard's tracker part).
package netsim

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"unsafe"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/rng"
)

// parallelMinWave is the smallest wave (events across all shards) worth
// handing to the shard workers; smaller waves are processed serially by the
// coordinator, which is both faster (no wakeup latency) and identical in
// outcome (shard slices touch disjoint state either way).
const parallelMinWave = 64

// waveLookahead is how far ahead of the delivery cursor runWave touches the
// upcoming destinations' node records: far enough to overlap several DRAM
// misses in the out-of-order window, near enough that the lines are still
// cached when the cursor arrives.
const waveLookahead = 12

// spinYield is how many barrier polls a spinning coordinator or worker makes
// between runtime.Gosched calls: rare enough that a wave hand-off costs a
// cache-line transfer, not a scheduler round trip, frequent enough that
// goroutines sharing the spinner's P (other shard workers at shards >
// GOMAXPROCS, the GC, the host's own goroutines) still run.
const spinYield = 256

// arenaChunk is the number of messages per arena or hold-slab chunk (40 KiB):
// big enough that chunk bookkeeping is noise, small enough that a 300-node
// test cluster does not hold megabytes of idle slots per shard.
const arenaChunk = 256

// Event flags.
const (
	flagSkip   uint8 = 1 << iota // suppressed by the Intercept pre-pass (already counted)
	flagExempt                   // bypasses the Intercept hook (fault-injected redelivery)
	flagHeld                     // m is a slot of the destination shard's hold slab
)

// sevent is one scheduled event in a shard's bucket, wave or periodic heap.
type sevent struct {
	at       uint64       // delivery instant (bucket entries: the bucket's time)
	seq      uint64       // global sequence number, the deterministic tiebreaker
	from     id.ID        // sender identity handed to Deliver (self for timers)
	m        *msg.Message // arena entry of the previous wave, or a hold slot (flagHeld)
	interval uint64       // re-arm interval for kindPeriodic
	to       int32        // destination node index
	kind     uint8
	flags    uint8
}

// outRec is one unit of handler output recorded during a wave, sequenced
// canonically at the barrier.
type outRec struct {
	pseq     uint64 // seq of the event whose handler produced this record
	at       uint64 // absolute delivery time for timers and periodic re-arms
	from     id.ID
	m        *msg.Message // entry of the sending shard's current arena, or a re-armed periodic's hold slot
	interval uint64
	birth    uint32 // order among that handler's outputs (re-arm first, then sends)
	to       int32
	kind     uint8
	flags    uint8
}

// sequenced turns the record into the event it schedules.
func (r *outRec) sequenced(at, seq uint64) sevent {
	return sevent{at: at, seq: seq, from: r.from, m: r.m, interval: r.interval, to: r.to, kind: r.kind, flags: r.flags}
}

// sameSlice reports whether two slices have the identical header.
func sameSlice[T any](a, b []T) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b) && cap(a) == cap(b)
}

// sameMessage reports whether a and b are shallowly identical: every scalar
// equal, every slice the same header. Under the copy-on-write ownership
// regime (package peer, "Message ownership") a sent slice is frozen, so no
// receiver can tell two such messages apart and one stored body can serve
// both. The address a message was sent from says nothing: callers restage
// different messages in the same scratch.
func sameMessage(a, b *msg.Message) bool {
	return a.Round == b.Round && a.Sender == b.Sender && a.Type == b.Type &&
		a.Hops == b.Hops && a.TTL == b.TTL && a.Subject == b.Subject &&
		a.Priority == b.Priority && a.Accept == b.Accept && a.Topic == b.Topic &&
		a.CostOld == b.CostOld && a.CostNew == b.CostNew &&
		sameSlice(a.Payload, b.Payload) && sameSlice(a.Nodes, b.Nodes) &&
		sameSlice(a.Entries, b.Entries) && sameSlice(a.Directory, b.Directory)
}

// arena stores the message bodies one shard's handlers emit during one wave.
// Chunks are never reallocated, so entry addresses are stable until reset.
type arena struct {
	chunks [][]msg.Message // each arenaChunk long
	n      int             // entries in use
	last   *msg.Message    // entry n-1
	pinned bool            // some entry in use carries a slice
}

// put stores *m and returns its entry: the previous one when *m is shallowly
// identical to it.
func (a *arena) put(m *msg.Message) *msg.Message {
	if a.last != nil && sameMessage(a.last, m) {
		return a.last
	}
	if a.n == len(a.chunks)*arenaChunk {
		a.chunks = append(a.chunks, make([]msg.Message, arenaChunk))
	}
	e := &a.chunks[a.n/arenaChunk][a.n%arenaChunk]
	*e = *m
	a.n++
	a.last = e
	if m.Payload != nil || m.Nodes != nil || m.Entries != nil || m.Directory != nil {
		a.pinned = true
	}
	return e
}

// reset empties the arena, clearing the slots that were in use if any of them
// referenced memory.
func (a *arena) reset() {
	if a.pinned {
		for c, left := 0, a.n; left > 0; c, left = c+1, left-arenaChunk {
			clear(a.chunks[c][:min(left, arenaChunk)])
		}
		a.pinned = false
	}
	a.n, a.last = 0, nil
}

// shard owns one partition of the node population (dense index mod shard
// count) and all event state addressed to it.
type shard struct {
	sim *Sim
	id  int

	cur  []sevent // the wave slice being processed at the current instant
	next []sevent // delay-0 outputs joining the next wave at the same instant

	future map[uint64][]sevent // pending events keyed by instant
	times  []uint64            // min-heap over future's keys
	pool   [][]sevent          // recycled bucket vectors

	pheap []sevent // periodic registrations, (at, seq) min-heap

	out  []outRec // wave output log, (pseq, birth)-ordered by construction
	opos int      // merge cursor into out
	ppos int      // pre-pass cursor into cur

	// pseq/birth identify the event whose handler is currently running, so
	// sends and timers land in out with their canonical tag.
	pseq  uint64
	birth uint32

	waveDelivered int // deliveries made in the current wave (coordinator-read)

	queued int // events in future buckets + next (Pending)

	touched uint64 // lookahead-touch sink; see runWave

	arenas [2]arena       // handler output bodies, indexed by wave parity
	hold   []*msg.Message // free slots of this shard's hold slab

	stats Stats // what this shard counted mid-wave; Sim.Stats sums the slices

	_ [64]byte // keeps neighbouring shards' hot fields off one cache line
}

// ShardOf returns the index of the shard that owns nodeID and delivers to it:
// the key a host uses to keep its Delivery-callback state per shard. It is 0
// for unknown nodes.
func (s *Sim) ShardOf(nodeID id.ID) int {
	if idx, ok := s.Index(nodeID); ok {
		return s.shardOf(idx).id
	}
	return 0
}

// NewSharded returns an empty simulator seeded with seed whose event engine
// is partitioned into shards shards (one when shards < 1); see the comment at
// the top of this file. Nodes are assigned to shards by dense index modulo
// the shard count. The shard count changes how the work is spread, never the
// run: the same seed produces the same trace at every count.
func NewSharded(seed uint64, shards int) *Sim {
	s := &Sim{
		rand:   rng.New(seed),
		shards: make([]shard, max(shards, 1)),
	}
	// On a single-P runtime workers cannot overlap anything and only add
	// scheduling latency per wave; the serial path is identical in outcome
	// (shard slices touch disjoint state either way), so take it. Captured
	// once: tests that want the concurrent path under -race raise GOMAXPROCS
	// before construction.
	s.waveParallel = len(s.shards) > 1 && runtime.GOMAXPROCS(0) > 1
	for i := range s.shards {
		sh := &s.shards[i]
		*sh = shard{sim: s, id: i, future: make(map[uint64][]sevent)}
	}
	s.spawn = s.startShardWorker
	return s
}

// barrier is where the coordinator and the shard workers meet once per
// parallel wave. The coordinator publishes a wave by bumping gen, and the stop
// by storing genStop there; each worker polls gen, runs its shard's slice and
// increments done; the coordinator runs shard 0's slice and then polls done
// until every worker has reported. The atomics order everything else: what
// the coordinator wrote before the bump is visible to a worker that saw it,
// what a worker wrote before its increment is visible to the coordinator that
// counted it. gen and done sit on cache lines of their own, so the polling
// never touches a line the coordinator writes while it merges.
type barrier struct {
	_       [64]byte
	gen     atomic.Uint64 // waves published in this Drain/RunFor call, or genStop
	_       [56]byte
	done    atomic.Int32 // workers finished with the current wave
	claimed atomic.Int32 // shards claimed by starting workers
	_       [56]byte
}

// genStop is the generation that tells the workers to exit.
const genStop = math.MaxUint64

// startShardWorker is the entry point of a worker goroutine: it claims the
// next shard without a worker and runs its loop. Sim.spawn holds it as a
// func value built once, because `go sh.worker()` would allocate a closure
// binding sh on every start.
func (s *Sim) startShardWorker() {
	s.shards[s.bar.claimed.Add(1)].worker()
}

// worker is the body of the shard's worker goroutine: one wave per bump of
// the barrier generation until the stop. It starts from generation 0, which
// startWorkers stored before spawning it: this is the generation captured
// before the first wave is published. A worker that loaded the counter itself
// could load it after the coordinator had already published that wave, and
// would then wait forever for the wave after it while the coordinator waits
// for this one. It waits for the counter to reach the next generation, not to
// equal it: a handler panicking on the coordinator's slice unwinds through
// the deferred stop, which can land before a worker saw the wave's bump.
func (sh *shard) worker() {
	s := sh.sim
	for want := uint64(1); ; want++ {
		gen := s.bar.gen.Load()
		for polls := 1; gen < want; polls++ {
			if polls%spinYield == 0 {
				runtime.Gosched()
			}
			gen = s.bar.gen.Load()
		}
		if gen == genStop {
			break
		}
		sh.runWave()
		s.bar.done.Add(1)
	}
	s.workersWG.Done()
}

// shardOf returns the shard owning the node at table index idx.
func (s *Sim) shardOf(idx int32) *shard {
	return &s.shards[int(idx)%len(s.shards)]
}

// ---- enqueue paths -------------------------------------------------------

// grabVec takes a recycled bucket vector — the largest one pooled. Wave
// vectors grow to the broadcast's peak wave (millions of events at 1M
// nodes); handing a small bucket vector to a big wave would regrow it
// through doubling reallocs of hundreds of MB per broadcast. Picking the
// max-capacity vector makes the two biggest arrays ping-pong between the
// cur/next wave slots, so the steady state re-allocates nothing. The pool
// stays a handful of entries, so the scan is noise.
func (sh *shard) grabVec() []sevent {
	if n := len(sh.pool); n > 0 {
		best := 0
		for i := 1; i < n; i++ {
			if cap(sh.pool[i]) > cap(sh.pool[best]) {
				best = i
			}
		}
		v := sh.pool[best]
		sh.pool[best] = sh.pool[n-1]
		sh.pool = sh.pool[:n-1]
		return v[:0]
	}
	return make([]sevent, 0, 64)
}

// putVec returns a vector's backing storage to the pool.
func (sh *shard) putVec(v []sevent) {
	if cap(v) > 0 {
		sh.pool = append(sh.pool, v[:0])
	}
}

// held copies *m into a free slot of the shard's hold slab and returns the
// slot. Its callers are the coordinator between waves and the shard's own
// runWave, which never overlap, so the free list needs no lock. A message
// that lives outside the slab (a caller's argument, an arena entry) is copied
// here before an event record is built around it: a record holding the
// caller's pointer would make escape analysis move every Send argument to the
// heap.
func (sh *shard) held(m *msg.Message) *msg.Message {
	if len(sh.hold) == 0 {
		chunk := make([]msg.Message, arenaChunk)
		for i := range chunk {
			sh.hold = append(sh.hold, &chunk[i])
		}
	}
	slot := sh.hold[len(sh.hold)-1]
	sh.hold = sh.hold[:len(sh.hold)-1]
	*slot = *m
	return slot
}

// release returns the event's hold slot, if it has one, to the free list,
// dropping the references it holds so a free slot never keeps a payload alive.
func (sh *shard) release(se *sevent) {
	if se.flags&flagHeld != 0 {
		m := se.m
		m.Nodes, m.Entries, m.Payload, m.Directory = nil, nil, nil, nil
		sh.hold = append(sh.hold, m)
	}
}

// holdEvent moves the event's message into the destination shard's hold slab
// unless it already lives there.
func (sh *shard) holdEvent(se *sevent) {
	if se.flags&flagHeld == 0 {
		se.m = sh.held(se.m)
		se.flags |= flagHeld
	}
}

// enqueueAt routes one sequenced event to its destination shard: the next
// wave when it is due at the active instant, a future bucket otherwise. se.m
// is a hold slot of that shard (flagHeld) or an entry of the arena the wave
// just wrote, which is readable for exactly one more wave: an event bound for
// a bucket takes a hold slot.
func (s *Sim) enqueueAt(se sevent) {
	sh := s.shardOf(se.to)
	sh.queued++
	if s.instantActive && se.at == s.instant {
		sh.next = append(sh.next, se)
		return
	}
	sh.holdEvent(&se)
	b, ok := sh.future[se.at]
	if !ok {
		b = sh.grabVec()
		heapPush(&sh.times, se.at, timeLess) // once per instant: the future map guards it
	}
	sh.future[se.at] = append(b, se)
}

// enqueuePeriodic registers a periodic event on its shard's heap; the
// registration owns a hold slot for as long as it lives.
func (s *Sim) enqueuePeriodic(se sevent) {
	sh := s.shardOf(se.to)
	sh.holdEvent(&se)
	heapPush(&sh.pheap, se, seventLess)
}

// send is the path of Endpoint.Send and Inject. During a wave the event is
// recorded in the sending shard's output log for canonical sequencing at the
// barrier; from coordinator context (harness Inject, OnCycle and OnPeerDown
// handlers, hooks) it is sequenced immediately. sh is the sending node's
// shard (nil for harness sends). m is never retained: the engine stores
// exactly one copy.
func (s *Sim) send(sh *shard, from, to id.ID, m *msg.Message) error {
	ti, ok := s.Index(to)
	if !ok || !s.aliveAt(ti) || !s.reachable(from, to) {
		s.countSendFailure(sh)
		return fmt.Errorf("send %v->%v: %w", from, to, peer.ErrPeerDown)
	}
	if sh != nil && s.inWave {
		sh.out = append(sh.out, outRec{pseq: sh.pseq, birth: sh.birth,
			from: from, to: ti, kind: kindMessage, m: sh.arenas[s.wave&1].put(m)})
		sh.birth++
		sh.stats.Sent++
		sh.stats.BytesSent += uint64(m.EncodedSize())
		return nil
	}
	var delay uint64
	if s.Latency != nil {
		delay = s.Latency(from, to, s.rand)
	}
	s.seq++
	s.enqueueAt(sevent{at: s.now + delay, seq: s.seq, from: from, to: ti, kind: kindMessage, flags: flagHeld, m: s.shardOf(ti).held(m)})
	s.stats.Sent++
	s.stats.BytesSent += uint64(m.EncodedSize())
	return nil
}

// countSendFailure counts a Send or Probe rejected with ErrPeerDown: on the
// caller's shard mid-wave, where it may run beside other shards.
func (s *Sim) countSendFailure(sh *shard) {
	if sh != nil && s.inWave {
		sh.stats.SendFailures++
	} else {
		s.stats.SendFailures++
	}
}

// Redeliver enqueues m for delivery to dst after delay ticks, bypassing both
// the Intercept hook and the Latency model: it is the re-entry path fault
// injectors use to express delay, duplicate and replay faults without the
// hook re-intercepting its own artifacts. Hooks run on the coordinator (the
// wave pre-pass), never on shard goroutines, so the copy is sequenced here
// and now. The message counts in the delivery stats but not Stats.Sent — it
// is a fault artifact, not a protocol send. An unknown or dead destination
// is reported as down, matching Send; a node dying afterwards drops the copy
// at delivery time like any in-flight message.
func (s *Sim) Redeliver(from, to id.ID, m msg.Message, delay uint64) error {
	ti, ok := s.Index(to)
	if !ok || !s.aliveAt(ti) {
		return fmt.Errorf("redeliver %v->%v: %w", from, to, peer.ErrPeerDown)
	}
	s.seq++
	s.enqueueAt(sevent{at: s.now + delay, seq: s.seq, from: from, to: ti, kind: kindMessage, flags: flagExempt | flagHeld, m: s.shardOf(ti).held(&m)})
	s.stats.Redelivered++
	return nil
}

// schedule is the path of Endpoint.After (kindTimer) and Every (kindPeriodic,
// delay being the interval too).
func (s *Sim) schedule(sh *shard, self id.ID, idx int32, kind uint8, delay uint64, m *msg.Message) {
	var interval uint64
	if kind == kindPeriodic {
		interval = delay
	}
	if s.inWave {
		sh.out = append(sh.out, outRec{pseq: sh.pseq, birth: sh.birth, at: s.now + delay,
			from: self, to: idx, kind: kind, interval: interval, m: sh.arenas[s.wave&1].put(m)})
		sh.birth++
		return
	}
	s.seq++
	se := sevent{at: s.now + delay, seq: s.seq, from: self, to: idx, kind: kind, interval: interval, flags: flagHeld, m: sh.held(m)}
	if kind == kindPeriodic {
		s.enqueuePeriodic(se)
	} else {
		s.enqueueAt(se)
	}
}

// ---- the barrier loop ----------------------------------------------------

// nextInstant returns the earliest instant holding bucketed traffic or, when
// periodic is set, a pending periodic round.
func (s *Sim) nextInstant(periodic bool) (t uint64, ok bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		if len(sh.times) > 0 && (!ok || sh.times[0] < t) {
			t, ok = sh.times[0], true
		}
		if periodic && len(sh.pheap) > 0 && (!ok || sh.pheap[0].at < t) {
			t, ok = sh.pheap[0].at, true
		}
	}
	return t, ok
}

// run is the loop under Drain (periodic schedule frozen, no horizon) and
// RunFor: it processes instant after instant up to and including until and
// returns the number of deliveries made.
func (s *Sim) run(until uint64, periodic bool) int {
	defer s.stopWorkers()
	delivered := 0
	s.flushDowns()
	for {
		t, ok := s.nextInstant(periodic)
		if !ok || t > until {
			return delivered
		}
		delivered += s.runInstant(t, periodic)
		s.flushDowns()
	}
}

// runInstant processes every event due at instant t, wave by wave, until the
// instant quiesces, and returns the number of deliveries. t lies in the past
// for periodic rounds that came due while a Drain advanced the clock: the
// clock stays where it is, and what their handlers send is due now, not at t.
// Every event of an instant has the same due time, so seq alone orders a wave
// across shards.
func (s *Sim) runInstant(t uint64, periodic bool) int {
	s.now = max(s.now, t)
	s.instant, s.instantActive = t, true
	delivered := 0

	// Wave formation: the instant's bucket on each shard, with the periodic
	// rounds due at t spliced in by seq.
	for i := range s.shards {
		sh := &s.shards[i]
		sh.formWave(t, periodic)
	}

	for {
		total := 0
		for i := range s.shards {
			total += len(s.shards[i].cur)
		}
		if total == 0 {
			break
		}
		if s.Tap != nil || s.Intercept != nil {
			s.prePass()
		}
		s.wave++
		s.inWave = true
		if s.waveParallel && total >= parallelMinWave {
			s.startWorkers()
			s.bar.done.Store(0) // every worker reported the last wave: nobody adds concurrently
			s.bar.gen.Add(1)
			s.shards[0].runWave()
			for polls, want := 1, int32(len(s.shards)-1); s.bar.done.Load() != want; polls++ {
				if polls%spinYield == 0 {
					runtime.Gosched()
				}
			}
		} else {
			for i := range s.shards {
				s.shards[i].runWave()
			}
		}
		s.inWave = false
		for i := range s.shards {
			sh := &s.shards[i]
			delivered += sh.waveDelivered
		}
		s.mergeOutputs()
		// The next wave at this instant is whatever delay-0 output landed.
		for i := range s.shards {
			sh := &s.shards[i]
			sh.putVec(sh.cur)
			sh.cur, sh.next = sh.next, sh.grabVec()
			sh.queued -= len(sh.cur)
			sh.ppos = 0
		}
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.putVec(sh.cur)
		sh.cur = nil
		sh.putVec(sh.next)
		sh.next = nil
	}
	s.instantActive = false
	return delivered
}

// startWorkers launches the workers of shards 1..S-1 unless this Drain or
// RunFor call already did. The barrier is reset before any worker exists, so
// every worker starts from generation 0 without reading it.
func (s *Sim) startWorkers() {
	if s.workersUp {
		return
	}
	s.workersUp = true
	s.bar.gen.Store(0)
	s.bar.claimed.Store(0)
	s.workersWG.Add(len(s.shards) - 1)
	for i := 1; i < len(s.shards); i++ {
		go s.spawn()
	}
}

// stopWorkers ends the workers and waits for them to exit.
func (s *Sim) stopWorkers() {
	if !s.workersUp {
		return
	}
	s.bar.gen.Store(genStop)
	s.workersWG.Wait()
	s.workersUp = false
}

// formWave assembles the shard's slice of the instant-t wave: the t bucket
// plus (in RunFor) the periodic rounds due at t, ordered by seq.
func (sh *shard) formWave(t uint64, periodic bool) {
	var bucket []sevent
	if b, ok := sh.future[t]; ok {
		delete(sh.future, t)
		// Instants are consumed in time order; popping any other would
		// corrupt that order silently.
		if head := heapPop(&sh.times, timeLess); head != t {
			panic(fmt.Sprintf("netsim: consuming instant %d while the earliest pending instant is %d", t, head))
		}
		bucket = b
		sh.queued -= len(b)
	}
	if !periodic || len(sh.pheap) == 0 || sh.pheap[0].at > t {
		// Common case: the bucket is the wave.
		if bucket != nil {
			sh.putVec(sh.cur)
			sh.cur = bucket
		} else {
			sh.cur = sh.grabVec()
		}
		sh.next = sh.grabVec()
		sh.ppos = 0
		return
	}
	// Splice the rounds due at t into the bucket by seq.
	cur := sh.grabVec()
	bi := 0
	for len(sh.pheap) > 0 && sh.pheap[0].at <= t {
		round := heapPop(&sh.pheap, seventLess)
		for ; bi < len(bucket) && bucket[bi].seq < round.seq; bi++ {
			cur = append(cur, bucket[bi])
		}
		cur = append(cur, round)
	}
	cur = append(cur, bucket[bi:]...)
	sh.putVec(bucket)
	sh.putVec(sh.cur)
	sh.cur = cur
	sh.next = sh.grabVec()
	sh.ppos = 0
}

// prePass walks the wave across all shards in global seq order, running the
// Intercept hook and the Tap serially, in canonical delivery order, on the
// coordinator goroutine. Hook verdicts are recorded on the events (flagSkip /
// replaced message) and applied during the delivery phase.
func (s *Sim) prePass() {
	for {
		var best *shard
		for i := range s.shards {
			sh := &s.shards[i]
			if sh.ppos < len(sh.cur) && (best == nil || sh.cur[sh.ppos].seq < best.cur[best.ppos].seq) {
				best = sh
			}
		}
		if best == nil {
			return
		}
		se := &best.cur[best.ppos]
		best.ppos++
		if se.kind != kindMessage {
			continue
		}
		to := idAt(se.to)
		if !s.nodes[se.to].alive || !s.reachable(se.from, to) {
			continue // dropped in the parallel phase; hooks never see it
		}
		if s.Intercept != nil && se.flags&flagExempt == 0 {
			hooked := *se.m
			repl, deliver := s.Intercept(to, &hooked)
			if !deliver {
				se.flags |= flagSkip
				s.stats.FaultDropped++
				continue
			}
			if repl != nil {
				hooked = *repl
			}
			if !sameMessage(&hooked, se.m) {
				// The hook changed its copy. An arena entry is shared with
				// the other receivers of the fan-out, so the changed message
				// gets a hold slot of its own.
				if se.flags&flagHeld != 0 {
					*se.m = hooked
				} else {
					se.m = best.held(&hooked)
					se.flags |= flagHeld
				}
			}
		}
		if s.Tap != nil {
			s.Tap(se.from, to, *se.m)
		}
	}
}

// runWave delivers the shard's slice of the current wave. It runs on the
// shard's worker for large waves and on the coordinator for small ones (and
// always for shard 0); either way it touches only this shard's nodes, buckets,
// output log, arenas, hold slab and counters. Deliver is handed the stored
// body itself — an entry of the previous wave's arena or a hold slot — which
// nothing writes until the handler has returned: this wave writes the other
// arena, and a hold slot is released only after its delivery.
func (sh *shard) runWave() {
	s := sh.sim
	// This wave's arena last held the output of two waves ago, which the wave
	// before this one finished reading.
	sh.arenas[s.wave&1].reset()
	count := 0
	for i := range sh.cur {
		// Lookahead touch: the wave vector already knows the next few
		// destinations, so start their node records' cache misses now and
		// let out-of-order execution overlap them with this delivery. At 1M
		// nodes every delivery touches DRAM-cold node state, and this
		// memory-level parallelism is worth more than the arithmetic around
		// it.
		if i+waveLookahead < len(sh.cur) {
			ahead := &s.nodes[sh.cur[i+waveLookahead].to]
			if ahead.alive {
				sh.touched++ // keeps the load live past dead-code elimination
			}
		}
		se := &sh.cur[i]
		dst := &s.nodes[se.to]
		if !dst.alive {
			if se.kind == kindMessage {
				sh.stats.Dropped++
				sh.release(se)
			} else {
				sh.holdEvent(se)
				dst.parked = append(dst.parked, *se)
			}
			continue
		}
		sh.pseq, sh.birth = se.seq, 1
		if se.kind == kindPeriodic {
			// Re-arm before delivering (birth 0: ahead of the handler's own
			// output), clamping missed deadlines like time.Ticker. The
			// registration keeps its hold slot.
			next := se.at + se.interval
			if next <= s.now {
				next = s.now + se.interval
			}
			sh.out = append(sh.out, outRec{pseq: se.seq, birth: 0, at: next,
				from: se.from, to: se.to, kind: kindPeriodic, interval: se.interval, m: se.m, flags: se.flags})
		}
		if se.kind == kindMessage {
			if !s.reachable(se.from, idAt(se.to)) {
				sh.stats.Dropped++
				sh.release(se)
				continue
			}
			if se.flags&flagSkip != 0 {
				sh.release(se) // suppressed by the Intercept pre-pass
				continue
			}
		}
		dst.proc.Deliver(se.from, se.m)
		count++
		if se.kind == kindMessage {
			sh.stats.Delivered++
		}
		if se.kind != kindPeriodic {
			sh.release(se)
		}
	}
	sh.waveDelivered = count
}

// mergeOutputs sequences every shard's wave output canonically: an S-way
// merge by (parent seq, birth index) — each shard's log is already sorted —
// assigning global sequence numbers, drawing latency delays from the root
// stream in merge order, and routing events to their destination shards. Only
// the small record moves; the message body stays where the handler wrote it
// unless the event is bound for a bucket (see enqueueAt).
// This order is exactly the order in which a one-event-at-a-time run would
// have made the same schedule calls, which is what keeps traces
// byte-identical across shard counts.
func (s *Sim) mergeOutputs() {
	for i := range s.shards {
		s.shards[i].opos = 0
	}
	for {
		var src *shard
		for i := range s.shards {
			sh := &s.shards[i]
			if sh.opos >= len(sh.out) {
				continue
			}
			if src == nil {
				src = sh
				continue
			}
			a, b := &sh.out[sh.opos], &src.out[src.opos]
			if a.pseq < b.pseq || (a.pseq == b.pseq && a.birth < b.birth) {
				src = sh
			}
		}
		if src == nil {
			break
		}
		r := &src.out[src.opos]
		src.opos++
		switch r.kind {
		case kindMessage:
			var delay uint64
			if s.Latency != nil {
				delay = s.Latency(r.from, idAt(r.to), s.rand)
			}
			s.seq++
			s.enqueueAt(r.sequenced(s.now+delay, s.seq))
		case kindTimer:
			s.seq++
			s.enqueueAt(r.sequenced(r.at, s.seq))
		case kindPeriodic:
			s.seq++
			s.enqueuePeriodic(r.sequenced(r.at, s.seq))
		}
	}
	for i := range s.shards {
		s.shards[i].out = s.shards[i].out[:0]
	}
}

// ---- the two small heaps: a shard's pending instants and periodic rounds ----

// heapPush inserts x into the binary min-heap h ordered by less.
func heapPush[T any](h *[]T, x T, less func(a, b *T) bool) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !less(&s[i], &s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// heapPop removes and returns the minimum of the non-empty heap h.
func heapPop[T any](h *[]T, less func(a, b *T) bool) T {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < last && less(&s[l], &s[least]) {
			least = l
		}
		if r < last && less(&s[r], &s[least]) {
			least = r
		}
		if least == i {
			return top
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
}

func timeLess(a, b *uint64) bool { return *a < *b }

func seventLess(a, b *sevent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
