package gossip

import "hyparview/internal/roundcache"

// TrackerWindow is the capacity, in rounds, of the tracker's per-round
// statistics cache. The harness measures one round at a time (each broadcast
// is fully drained, read and Forgotten before the next), so the window only
// has to cover rounds measured concurrently; 1024 leaves two orders of
// magnitude of slack while keeping a tracker part a flat 32KB for the life of
// a run.
const TrackerWindow = 1024

// Tracker aggregates per-round delivery statistics across a simulated
// cluster. The experiment harness installs one Tracker-backed Delivery
// callback per node and reads reliability figures from it.
//
// Gossip reliability is defined in the paper (§2.5) as the percentage of
// live nodes that deliver a broadcast; 100% means atomic broadcast.
//
// The per-round state lives in fixed-capacity round caches: Deliver on the
// per-delivery hot path is one array access and never allocates, and a round
// older than TrackerWindow behind the newest tracked round is evicted (its
// statistics read as zero, exactly as after Forget).
//
// A tracker is made of parts. Writers that run concurrently — the shards of
// the simulator's wave engine — each record into a part of their own
// (TrackerPart.Deliver), so accounting takes no lock; readers sum the parts
// in index order, between waves. A tracker from NewTracker has one part and
// Tracker.Deliver records into it.
type Tracker struct {
	next  uint64
	parts []TrackerPart
}

// TrackerPart is one writer's slice of a Tracker.
type TrackerPart struct {
	rounds roundcache.Cache[roundStats]

	_ [64]byte // no two parts' cache headers on one cache line
}

type roundStats struct {
	delivered int
	maxHops   int
	sumHops   int
}

// NewTracker returns an empty tracker with a single part.
func NewTracker() *Tracker { return NewTrackerParts(1) }

// NewTrackerParts returns an empty tracker with parts parts (at least one).
func NewTrackerParts(parts int) *Tracker {
	t := &Tracker{parts: make([]TrackerPart, max(parts, 1))}
	for i := range t.parts {
		t.parts[i].rounds.Init(TrackerWindow)
	}
	return t
}

// Part returns part i, for the one writer that owns it.
func (t *Tracker) Part(i int) *TrackerPart { return &t.parts[i] }

// NextRound allocates a fresh round identifier.
func (t *Tracker) NextRound() uint64 {
	t.next++
	return t.next
}

// Deliver records one delivery of round after hops overlay hops in part 0.
// It is the Delivery callback to install on gossip nodes that share one
// goroutine.
func (t *Tracker) Deliver(round uint64, topic uint32, payload []byte, hops int) {
	t.parts[0].Deliver(round, topic, payload, hops)
}

// Deliver records one delivery of round after hops overlay hops. It is the
// Delivery callback to install on the gossip nodes of the part's writer.
func (p *TrackerPart) Deliver(round uint64, _ uint32, _ []byte, hops int) {
	rs, existed := p.rounds.Put(round)
	if !existed {
		*rs = roundStats{}
	}
	rs.delivered++
	rs.sumHops += hops
	if hops > rs.maxHops {
		rs.maxHops = hops
	}
}

// stats sums round's statistics over the parts.
func (t *Tracker) stats(round uint64) (sum roundStats) {
	for i := range t.parts {
		if rs := t.parts[i].rounds.Get(round); rs != nil {
			sum.delivered += rs.delivered
			sum.sumHops += rs.sumHops
			sum.maxHops = max(sum.maxHops, rs.maxHops)
		}
	}
	return sum
}

// Delivered returns the number of nodes that delivered round.
func (t *Tracker) Delivered(round uint64) int { return t.stats(round).delivered }

// Reliability returns the fraction (0..1) of the alive population that
// delivered round.
func (t *Tracker) Reliability(round uint64, alive int) float64 {
	if alive <= 0 {
		return 0
	}
	return float64(t.Delivered(round)) / float64(alive)
}

// MaxHops returns the maximum hop count observed for round's deliveries.
func (t *Tracker) MaxHops(round uint64) int { return t.stats(round).maxHops }

// AvgHops returns the mean delivery hop count for round.
func (t *Tracker) AvgHops(round uint64) float64 {
	rs := t.stats(round)
	if rs.delivered == 0 {
		return 0
	}
	return float64(rs.sumHops) / float64(rs.delivered)
}

// Forget drops the statistics of round.
func (t *Tracker) Forget(round uint64) {
	for i := range t.parts {
		t.parts[i].rounds.Remove(round)
	}
}

// Reset drops all per-round statistics in place (no allocation) but keeps
// the round counter monotonic.
func (t *Tracker) Reset() {
	for i := range t.parts {
		t.parts[i].rounds.Reset()
	}
}
