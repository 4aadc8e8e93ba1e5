package netsim

// The reference the event engine is tested against (shards_test.go): the
// serial (at, seq) order written down naively. One queue sorted by instant,
// ties in scheduling order; one event delivered at a time; every Send queued
// as it is made. No waves, shards or pooling; no Intercept, partition, watch.

import (
	"math"
	"slices"
	"sort"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/rng"
)

type oracleEvent struct {
	at       uint64
	from     id.ID
	to       *oracleNode
	kind     uint8
	interval uint64 // kindPeriodic
	m        msg.Message
}

type oracle struct {
	rand  *rng.Rand // built with &oracle{rand: rng.New(seed)}
	now   uint64
	nodes []*oracleNode // node i+1 at index i
	queue []oracleEvent // everything pending, by instant, then in scheduling order

	Latency func(from, to id.ID, r *rng.Rand) uint64
	Tap     func(from, to id.ID, m msg.Message)
}

type oracleNode struct {
	o      *oracle
	self   id.ID
	rand   *rng.Rand
	proc   peer.Process
	alive  bool
	parked []oracleEvent // timers and rounds that came due while failed
}

// Add mirrors Sim.Add; the scenarios add nodes 1, 2, 3, ... in that order.
func (o *oracle) Add(nodeID id.ID, factory func(peer.Env) peer.Process) {
	n := &oracleNode{o: o, self: nodeID, rand: o.rand.Split(), alive: true}
	o.nodes = append(o.nodes, n)
	n.proc = factory(n)
}

func (o *oracle) reach(x id.ID) error {
	if x == 0 || uint64(x) > uint64(len(o.nodes)) || !o.nodes[x-1].alive {
		return peer.ErrPeerDown
	}
	return nil
}

// insert files ev behind everything due by its instant: the sequence order.
func (o *oracle) insert(ev oracleEvent) {
	i := sort.Search(len(o.queue), func(i int) bool { return o.queue[i].at > ev.at })
	o.queue = slices.Insert(o.queue, i, ev)
}

func (o *oracle) Inject(from, to id.ID, m msg.Message) error {
	if err := o.reach(to); err != nil {
		return err
	}
	var delay uint64
	if o.Latency != nil {
		delay = o.Latency(from, to, o.rand)
	}
	o.insert(oracleEvent{at: o.now + delay, from: from, to: o.nodes[to-1], kind: kindMessage, m: m})
	return nil
}

func (o *oracle) Now() uint64  { return o.now }
func (o *oracle) Fail(x id.ID) { o.nodes[x-1].alive = false }

func (o *oracle) Revive(x id.ID) {
	n := o.nodes[x-1]
	n.alive = true
	for _, ev := range n.parked { // timers fire now, rounds resume an interval from now
		ev.at = o.now
		if ev.kind == kindPeriodic {
			ev.at += ev.interval
		}
		o.insert(ev)
	}
	n.parked = nil
}

// run delivers, one at a time, every event due by until and returns the
// deliveries made. Drain leaves periodic rounds where they are; RunFor fires
// them and lands the clock on until.
func (o *oracle) run(until uint64, periodic bool) int {
	delivered := 0
	for i := 0; i < len(o.queue) && o.queue[i].at <= until; {
		ev := o.queue[i]
		if ev.kind == kindPeriodic && !periodic {
			i++
			continue
		}
		o.queue = slices.Delete(o.queue, i, i+1) // what the handler schedules sorts behind position i
		o.now = max(o.now, ev.at)
		n := ev.to
		if !n.alive {
			if ev.kind != kindMessage {
				n.parked = append(n.parked, ev)
			}
			continue
		}
		if ev.kind == kindPeriodic { // re-armed before its handler runs; missed firings are skipped
			next := ev
			if next.at += ev.interval; next.at <= o.now {
				next.at = o.now + ev.interval
			}
			o.insert(next)
		}
		if ev.kind == kindMessage && o.Tap != nil {
			o.Tap(ev.from, n.self, ev.m)
		}
		n.proc.Deliver(ev.from, &ev.m)
		delivered++
	}
	if periodic {
		o.now = max(o.now, until)
	}
	return delivered
}

func (o *oracle) Drain() int          { return o.run(math.MaxUint64, false) }
func (o *oracle) RunFor(d uint64) int { return o.run(o.now+d, true) }

func (n *oracleNode) Self() id.ID           { return n.self }
func (n *oracleNode) Rand() *rng.Rand       { return n.rand }
func (n *oracleNode) Now() uint64           { return n.o.now }
func (n *oracleNode) Watch(id.ID)           {}
func (n *oracleNode) Unwatch(id.ID)         {}
func (n *oracleNode) Probe(dst id.ID) error { return n.o.reach(dst) }

func (n *oracleNode) Send(dst id.ID, m msg.Message) error { return n.o.Inject(n.self, dst, m) }
func (n *oracleNode) After(d uint64, m msg.Message)       { n.timer(kindTimer, d, 0, m) }
func (n *oracleNode) Every(d uint64, m msg.Message)       { n.timer(kindPeriodic, max(d, 1), max(d, 1), m) }

func (n *oracleNode) timer(kind uint8, delay, interval uint64, m msg.Message) {
	n.o.insert(oracleEvent{at: n.o.now + delay, from: n.self, to: n, kind: kind, interval: interval, m: m})
}
