package transport

import (
	"time"

	"hyparview/internal/id"
	"hyparview/internal/msg"
)

// unknownCost is returned for links the oracle has no estimate for yet. It is
// large enough that an unmeasured link never looks attractive to the
// optimizer, while the triggered measurement makes the next optimization
// round better informed.
const unknownCost = uint64(1) << 40

// rttEWMAWeight is the weight of a new sample in the running estimate: TCP's
// classic SRTT smoothing factor (RFC 6298), 1/8.
const rttEWMAWeight = 0.125

// prober is everything the agent knows about the peers it measures with
// PING/PONG, one entry per peer. The one mechanism serves two purposes: it
// is X-BOT's cost oracle (the deployment-side counterpart of the
// simulator's latency model — X-BOT only ever asks a node for the cost of
// its own adjacent links, which is exactly what a node can measure itself),
// and it is the liveness probe behind half-open suspicion
// (AgentConfig.SuspectAfter): a stalled-but-not-closed peer keeps ACKing at
// the kernel level, so writes succeed and the watch stays silent, and
// unanswered PINGs are the only timely evidence.
//
// The prober is used under the agent lock only; it is not safe for
// concurrent use and needs no locks of its own.
type prober struct {
	self  id.ID
	links map[id.ID]*linkProbe
	// request starts a measurement of a link the optimizer asked about but
	// that has no estimate yet. The current Cost still returns unknownCost;
	// the estimate exists by the next attempt.
	request func(id.ID)
}

// linkProbe is one peer's entry.
type linkProbe struct {
	inflight []ping  // PINGs sent and not answered, oldest first
	rtt      float64 // microseconds, EWMA-smoothed; valid when measured
	measured bool
	misses   int // consecutive probe rounds entered with a PING in flight
}

// ping is one outstanding PING: its nonce and when it was sent.
type ping struct {
	nonce uint64
	sent  time.Time
}

// newProber builds the prober of self; request is invoked for cost queries
// about unmeasured peers.
func newProber(self id.ID, request func(id.ID)) *prober {
	return &prober{self: self, links: make(map[id.ID]*linkProbe), request: request}
}

// sent records a PING carrying nonce, sent to peer at the given time.
func (p *prober) sent(peer id.ID, nonce uint64, at time.Time) {
	l := p.links[peer]
	if l == nil {
		l = &linkProbe{}
		p.links[peer] = l
	}
	l.inflight = append(l.inflight, ping{nonce, at})
}

// answered completes the measurement a PONG from peer, received at the given
// time, closes. It counts only if it echoes a nonce outstanding to that
// peer: a stale, duplicated, forged or misdirected PONG changes nothing.
// The PINGs sent to peer before the answered one travelled the same
// connection ahead of it and are dropped with it; any answer ends the
// silence streak, so a slow peer is never convicted for jitter.
func (p *prober) answered(peer id.ID, nonce uint64, at time.Time) {
	l := p.links[peer]
	if l == nil {
		return
	}
	for i, pg := range l.inflight {
		if pg.nonce != nonce {
			continue
		}
		l.observe(at.Sub(pg.sent))
		l.inflight = l.inflight[:copy(l.inflight, l.inflight[i+1:])]
		l.misses = 0
		return
	}
}

// observe folds one measured round trip into the estimate.
func (l *linkProbe) observe(rtt time.Duration) {
	if rtt < 0 {
		return
	}
	sample := float64(rtt.Microseconds())
	if l.measured {
		l.rtt += rttEWMAWeight * (sample - l.rtt)
	} else {
		l.rtt, l.measured = sample, true
	}
}

// round is called once per probe round per active peer, before that round's
// PING goes out, and returns the silence streak: entering a round with a
// PING still unanswered is one more miss; entering clean resets the streak.
func (p *prober) round(peer id.ID) int {
	l := p.links[peer]
	if l == nil {
		return 0
	}
	if len(l.inflight) == 0 {
		l.misses = 0
	} else {
		l.misses++
	}
	return l.misses
}

// suspected forgets peer's in-flight PINGs and its streak once it is
// convicted — a late PONG must not count — and keeps its estimate.
func (p *prober) suspected(peer id.ID) {
	if l := p.links[peer]; l != nil {
		l.inflight = l.inflight[:0]
		l.misses = 0
	}
}

// expire drops the PINGs sent before cutoff — the peer died, or the answer
// was lost; the failure detector reports either separately — and then every
// entry with nothing in flight whose peer keep rejects, bounding the table
// to the node's membership horizon.
func (p *prober) expire(cutoff time.Time, keep func(id.ID) bool) {
	for peer, l := range p.links {
		n := 0
		for n < len(l.inflight) && l.inflight[n].sent.Before(cutoff) {
			n++
		}
		l.inflight = l.inflight[:copy(l.inflight, l.inflight[n:])]
		if len(l.inflight) == 0 && !keep(peer) {
			delete(p.links, peer)
		}
	}
}

// estimate returns the current estimate for peer in microseconds.
func (p *prober) estimate(peer id.ID) (float64, bool) {
	if l := p.links[peer]; l != nil && l.measured {
		return l.rtt, true
	}
	return 0, false
}

// other returns the endpoint of the link (a, b) that is not the local node.
func (p *prober) other(a, b id.ID) id.ID {
	if b == p.self {
		return a
	}
	return b
}

// Cost implements xbot.Oracle. One endpoint is always the local node; the
// estimate for the other endpoint is returned, or unknownCost — after
// starting a measurement — when the link was never measured. An estimate
// under a microsecond costs 1, never 0: a free link would win every
// comparison.
func (p *prober) Cost(a, b id.ID) uint64 {
	other := p.other(a, b)
	if other == p.self || other.IsNil() {
		return 0
	}
	if e, ok := p.estimate(other); ok {
		return max(uint64(e), 1)
	}
	p.request(other)
	return unknownCost
}

// KnownCost implements xbot.CostKnower: the optimizer must not rank or
// dissolve links the prober has never completed a measurement for.
func (p *prober) KnownCost(a, b id.ID) bool {
	other := p.other(a, b)
	if other == p.self || other.IsNil() {
		return true
	}
	_, ok := p.estimate(other)
	return ok
}

// sendPing starts one RTT measurement: a PING carrying a random nonce that
// the peer echoes back in a PONG. It only rides a link that already exists
// — never dialing — so a measurement can never stall the agent on a dead
// peer. Active-view links are open by definition (Watch dials them), and
// optimizer candidates were just probed, so the peers worth measuring
// always have one. Called under the agent lock.
func (a *Agent) sendPing(dst id.ID) {
	if dst == a.tr.Self() || dst.IsNil() || !a.tr.Connected(dst) {
		return
	}
	nonce := a.rand.Uint64()
	// A failed send needs no handling: the watch reports the broken link.
	if a.tr.Send(dst, msg.Message{Type: msg.Ping, Sender: a.tr.Self(), Round: nonce}) == nil {
		a.probe.sent(dst, nonce, time.Now())
	}
}

// onProbeTick runs one probe round: it expires what the prober no longer
// needs, convicts every active peer silent for SuspectAfter rounds in a row,
// and PINGs the rest. Suspect fires the watch on a goroutine of its own, so
// the verdict re-enters through peerDown, the usual repair path, once the
// agent lock is released.
func (a *Agent) onProbeTick() {
	// The in-flight cutoff keeps an absolute floor above any plausible RTT:
	// with a short probe period, 3×period alone would expire PINGs on
	// high-latency paths before their PONGs arrive, leaving exactly the
	// expensive links forever unmeasured.
	cutoff := max(3*a.probePeriod, 3*time.Second)
	c := a.stack.Core
	a.probe.expire(time.Now().Add(-cutoff), func(p id.ID) bool { return c.ActiveContains(p) || c.PassiveContains(p) })
	for _, p := range c.Active() {
		if misses := a.probe.round(p); a.suspectAfter > 0 && misses >= a.suspectAfter {
			a.probe.suspected(p)
			a.tr.Suspect(p)
			continue
		}
		a.sendPing(p)
	}
}
