package main

import "time"

// The reference box is a 2-vCPU guest on a shared host (the two vCPUs are
// hyperthreads of one core), and what the other tenants do changes how fast
// it runs by a factor of up to two, for seconds or for minutes: identical
// code took 390 ns and 1100 ns per simulated event within one hour. No
// statistic inside a run removes a disturbance that outlasts the run, so the
// simulator's timings are read against a yardstick instead: a fixed piece of
// work that shares no code with the program under test (a change to the
// program cannot move it), is slowed by a busy host in the same way the
// program is, and runs in the same slice as the work it is compared with.
//
// The yardstick is a flood over a random 5-regular overlay, driven by a
// binary-heap event queue with a 64-round duplicate filter per node: the
// instruction mix of the simulator (pointer-chasing over a node table that
// does not fit the private caches, a priority queue, short linear scans),
// rewritten from scratch so that it stays put when the simulator changes.
// It is kept small (344 B a node, 3.4 MB at 10000 nodes) so that it neither
// moves the collector's pacing nor counts in peak_rss_mb; the price is that
// it feels a busy host less than the simulator does, whose 130 MB heap also
// pays in page walks (measured: the simulator slows 1.3–2 times as much, in
// log terms), so it removes about half of the host's drift, not all of it.
//
// A slice's host factor is the yardstick's cost in that slice over
// yardNominalNs. A time or a cost is divided by it and a rate multiplied, so
// a reported number reads "as if the host ran the yardstick at
// yardNominalNs per event". The factor itself is reported as
// bench.host_factor.

const (
	// yardNominalNs fixes the scale only: it is the yardstick's cost on the
	// reference box in a quiet hour.
	yardNominalNs = 500.0
	// yardEvents is how many events one gauge reading processes, about 10 ms
	// of work: a reading a tenth as long starts on caches the program has
	// just filled and mostly measures warming them up again.
	yardEvents = 16384
	// yardGap is how much work of the program may pass between two readings:
	// the closer in time a reading is to the work it is compared with, the
	// more of the host's short-lived changes the two share.
	yardGap = 50 * time.Millisecond
)

type yardNode struct {
	peers [5]uint32
	seen  [64]uint32 // ring of the rounds delivered here
	next  uint32
	_     [64]byte // one more cache line per node, as protocol state would take
}

type yardEvent struct {
	at, seq         uint64
	to, from, round uint32
}

type floodYard struct {
	nodes []yardNode
	queue []yardEvent // binary min-heap on (at, seq)
	now   uint64
	seq   uint64
	round uint32
	rnd   uint64 // xorshift state: not the repository's rng, which is under test
}

func (y *floodYard) rand() uint64 {
	y.rnd ^= y.rnd << 13
	y.rnd ^= y.rnd >> 7
	y.rnd ^= y.rnd << 17
	return y.rnd
}

func newFloodYard(nodes int) *floodYard {
	y := &floodYard{nodes: make([]yardNode, nodes), rnd: 88172645463325252}
	for i := range y.nodes {
		n := &y.nodes[i]
		n.peers[0] = uint32((i + 1) % nodes) // a ring keeps the overlay connected
		for k := 1; k < len(n.peers); k++ {
			n.peers[k] = uint32(y.rand() % uint64(nodes))
		}
	}
	for i := 0; i < 8; i++ { // grow the queue to its steady capacity and warm the caches
		y.gauge()
	}
	return y
}

func (e yardEvent) before(o yardEvent) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

func (y *floodYard) push(e yardEvent) {
	q := append(y.queue, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	y.queue = q
}

func (y *floodYard) pop() yardEvent {
	q := y.queue
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < last; c++ {
			if q[c].before(q[least]) {
				least = c
			}
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	y.queue = q
	return top
}

// gauge processes yardEvents events, starting a new round from a new source
// whenever the last one has drained, and returns the cost in ns per event.
func (y *floodYard) gauge() float64 {
	start := time.Now()
	for n := 0; n < yardEvents; n++ {
		if len(y.queue) == 0 {
			y.round++
			src := uint32(y.rand() % uint64(len(y.nodes)))
			y.push(yardEvent{at: y.now, to: src, from: src, round: y.round})
		}
		e := y.pop()
		y.now = e.at
		node := &y.nodes[e.to]
		dup := false
		for _, r := range node.seen {
			if r == e.round {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		node.seen[node.next%uint32(len(node.seen))] = e.round
		node.next++
		for _, p := range node.peers {
			if p != e.from {
				y.seq++
				y.push(yardEvent{at: e.at + 1 + y.rand()%8, seq: y.seq, to: p, from: e.to, round: e.round})
			}
		}
	}
	return float64(time.Since(start)) / yardEvents
}

// hostGauge takes yardstick readings between stretches of the program's
// work, one for every yardGap of it.
type hostGauge struct {
	yard     *floodYard
	since    time.Duration // work done since the last reading
	readings []float64
}

// worked notes that the program has just worked for d.
func (g *hostGauge) worked(d time.Duration) {
	if g.since += d; g.since >= yardGap {
		g.read()
	}
}

func (g *hostGauge) read() {
	g.readings = append(g.readings, g.yard.gauge())
	g.since = 0
}

// hostFactor turns gauge readings taken in one slice into that slice's
// factor: their median over the nominal cost.
func hostFactor(readings []float64) float64 { return median(readings) / yardNominalNs }
