package transport

import (
	"time"

	"hyparview/internal/id"
)

// unknownCost is returned for links the oracle has no estimate for yet. It is
// large enough that an unmeasured link never looks attractive to the
// optimizer, while the triggered measurement makes the next optimization
// round better informed.
const unknownCost = uint64(1) << 40

// rttEWMAWeight is the weight of a new sample in the running estimate: TCP's
// classic SRTT smoothing factor (RFC 6298), 1/8.
const rttEWMAWeight = 0.125

// rttOracle implements xbot.Oracle over live PING/PONG round-trip
// measurements: one exponentially weighted moving average per peer, in
// microseconds. This is the deployment-side counterpart of the simulator's
// latency model — X-BOT only ever asks a node for the cost of its own
// adjacent links, which is exactly what a node can measure itself.
//
// The oracle is used under the agent lock only; it is not safe for
// concurrent use and needs no locks of its own.
type rttOracle struct {
	self id.ID
	est  map[id.ID]float64 // microseconds, EWMA-smoothed

	// requestPing asynchronously starts a measurement of a link the
	// optimizer asked about but that has no estimate yet. The current call
	// still returns unknownCost; the estimate exists by the next attempt.
	requestPing func(id.ID)
}

// newRTTOracle builds an oracle for self; requestPing is invoked for
// cost queries about unmeasured peers.
func newRTTOracle(self id.ID, requestPing func(id.ID)) *rttOracle {
	return &rttOracle{
		self:        self,
		est:         make(map[id.ID]float64),
		requestPing: requestPing,
	}
}

// Cost implements xbot.Oracle. One endpoint is always the local node; the
// estimate for the other endpoint is returned, or unknownCost — after
// kicking off a measurement — when the link was never measured.
func (o *rttOracle) Cost(a, b id.ID) uint64 {
	other := b
	if other == o.self {
		other = a
	}
	if other == o.self || other.IsNil() {
		return 0
	}
	if e, ok := o.est[other]; ok {
		if e < 1 {
			return 1
		}
		return uint64(e)
	}
	if o.requestPing != nil {
		o.requestPing(other)
	}
	return unknownCost
}

// KnownCost implements xbot.CostKnower: the optimizer must not rank or
// dissolve links this oracle has never completed a measurement for.
func (o *rttOracle) KnownCost(a, b id.ID) bool {
	other := b
	if other == o.self {
		other = a
	}
	if other == o.self || other.IsNil() {
		return true
	}
	_, ok := o.est[other]
	return ok
}

// observe folds one measured round trip into the peer's estimate.
func (o *rttOracle) observe(peer id.ID, rtt time.Duration) {
	if rtt < 0 {
		return
	}
	sample := float64(rtt.Microseconds())
	if prev, ok := o.est[peer]; ok {
		o.est[peer] = prev + rttEWMAWeight*(sample-prev)
	} else {
		o.est[peer] = sample
	}
}

// estimate returns the current estimate for peer in microseconds.
func (o *rttOracle) estimate(peer id.ID) (float64, bool) {
	e, ok := o.est[peer]
	return e, ok
}

// probeLedger is the bookkeeping behind half-open suspicion
// (AgentConfig.SuspectAfter): per-peer "a PING is in flight unanswered"
// flags and the count of consecutive probe rounds entered in that state. A
// stalled-but-not-closed peer keeps ACKing at the kernel level, so writes
// succeed and the watch machinery stays silent; unanswered application-level
// probes are the only timely evidence, and N consecutive misses is the
// suspicion verdict the agent converts into Transport.Suspect. Used under
// the agent lock only; no locks of its own.
type probeLedger struct {
	awaiting map[id.ID]bool // PING sent, no PONG yet
	misses   map[id.ID]int  // consecutive probe rounds entered while awaiting
}

func newProbeLedger() *probeLedger {
	return &probeLedger{
		awaiting: make(map[id.ID]bool),
		misses:   make(map[id.ID]int),
	}
}

// sent records an in-flight PING to peer.
func (p *probeLedger) sent(peer id.ID) { p.awaiting[peer] = true }

// answered clears peer's suspicion state: any PONG proves the link live.
func (p *probeLedger) answered(peer id.ID) {
	delete(p.awaiting, peer)
	delete(p.misses, peer)
}

// tick is called once per probe round per active peer, before that round's
// PING goes out, and returns the consecutive-miss count: entering a round
// with the previous PING still unanswered is one miss; entering clean
// resets the streak. A slow answer self-heals — the first answered probe
// wipes the streak — so only sustained silence accumulates toward the
// suspicion threshold.
func (p *probeLedger) tick(peer id.ID) int {
	if p.awaiting[peer] {
		p.misses[peer]++
	} else {
		delete(p.misses, peer)
	}
	return p.misses[peer]
}

// forget drops peer entirely (suspected, or left the membership horizon).
func (p *probeLedger) forget(peer id.ID) {
	delete(p.awaiting, peer)
	delete(p.misses, peer)
}

// prune drops state for peers outside keep, mirroring rttOracle.prune.
func (p *probeLedger) prune(keep map[id.ID]bool) {
	for q := range p.awaiting {
		if !keep[q] {
			delete(p.awaiting, q)
		}
	}
	for q := range p.misses {
		if !keep[q] {
			delete(p.misses, q)
		}
	}
}

// prune drops estimates for peers outside keep, bounding the map to the
// node's current membership horizon (both views plus in-flight pings).
func (o *rttOracle) prune(keep map[id.ID]bool) {
	for p := range o.est {
		if !keep[p] {
			delete(o.est, p)
		}
	}
}

// len reports the number of live estimates (tests).
func (o *rttOracle) len() int { return len(o.est) }
