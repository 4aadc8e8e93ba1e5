package transport

import (
	"testing"
	"time"

	"hyparview/internal/id"
	"hyparview/internal/xbot"
)

// The prober must satisfy the optimizer's contracts.
var (
	_ xbot.Oracle     = (*prober)(nil)
	_ xbot.CostKnower = (*prober)(nil)
)

// measure runs one answered PING to peer that took rtt.
func measure(p *prober, peer id.ID, nonce uint64, rtt time.Duration) {
	t0 := time.Unix(0, 0)
	p.sent(peer, nonce, t0)
	p.answered(peer, nonce, t0.Add(rtt))
}

func TestRTTOracleUnknownTriggersPing(t *testing.T) {
	var pinged []id.ID
	p := newProber(1, func(q id.ID) { pinged = append(pinged, q) })

	if p.KnownCost(1, 2) {
		t.Error("unmeasured link reported as known")
	}
	if c := p.Cost(1, 2); c != unknownCost {
		t.Errorf("unmeasured Cost = %d, want unknownCost", c)
	}
	if len(pinged) != 1 || pinged[0] != 2 {
		t.Fatalf("Cost of unmeasured link pinged %v, want [2]", pinged)
	}
	// Self links are never measured and always "known".
	if c := p.Cost(1, 1); c != 0 {
		t.Errorf("self Cost = %d, want 0", c)
	}
	if !p.KnownCost(1, 1) {
		t.Error("self link reported unknown")
	}
}

func TestRTTOracleEWMAAndSymmetry(t *testing.T) {
	p := newProber(1, func(id.ID) {})
	measure(p, 2, 10, 800*time.Microsecond)
	if c := p.Cost(1, 2); c != 800 {
		t.Errorf("first sample Cost = %d, want 800", c)
	}
	// Argument order must not matter: one endpoint is always the local node.
	if p.Cost(2, 1) != p.Cost(1, 2) {
		t.Error("Cost not symmetric in argument order")
	}
	if !p.KnownCost(2, 1) {
		t.Error("measured link reported unknown")
	}
	// RFC 6298 smoothing: est' = est + (sample-est)/8.
	measure(p, 2, 11, 1600*time.Microsecond)
	if c := p.Cost(1, 2); c != 900 {
		t.Errorf("EWMA Cost = %d, want 900", c)
	}
	// Sub-microsecond estimates clamp to 1, never 0 (a zero-cost link would
	// always win every comparison).
	measure(p, 3, 12, 100*time.Nanosecond)
	if c := p.Cost(1, 3); c != 1 {
		t.Errorf("tiny RTT Cost = %d, want clamp to 1", c)
	}
}

func TestRTTOraclePrune(t *testing.T) {
	p := newProber(1, func(id.ID) {})
	measure(p, 2, 1, time.Millisecond)
	measure(p, 3, 2, time.Millisecond)
	measure(p, 4, 3, time.Millisecond)
	// Peer 5 is outside the views but has a PING in flight; peer 6's PING
	// is older than the cutoff.
	now := time.Unix(100, 0)
	p.sent(5, 4, now)
	p.sent(6, 5, now.Add(-time.Hour))
	p.expire(now.Add(-time.Minute), func(q id.ID) bool { return q == 3 })
	if len(p.links) != 2 || !p.KnownCost(1, 3) || p.KnownCost(1, 2) || p.links[5] == nil {
		t.Errorf("expire kept %d entries, want peer 3 and peer 5's in-flight PING", len(p.links))
	}
	// Once its PING is answered, peer 5 is measured; expired later, it goes.
	p.answered(5, 4, now.Add(time.Millisecond))
	p.expire(now, func(q id.ID) bool { return q == 3 })
	if len(p.links) != 1 || p.links[3] == nil {
		t.Errorf("expire kept %d entries, want only peer 3", len(p.links))
	}
}

// TestProberSilenceStreak pins the suspicion bookkeeping: one miss per
// round entered with a PING in flight, answers that do not echo an
// outstanding nonce of that very peer change nothing, any real answer ends
// the streak, and a verdict forgets the in-flight PINGs but keeps the
// estimate.
func TestProberSilenceStreak(t *testing.T) {
	p := newProber(1, func(id.ID) {})
	t0 := time.Unix(0, 0)
	if m := p.round(2); m != 0 {
		t.Fatalf("round of a never-pinged peer = %d, want 0", m)
	}
	p.sent(2, 7, t0)
	p.sent(3, 8, t0)
	for want := 1; want <= 3; want++ {
		if m := p.round(2); m != want {
			t.Fatalf("silent round %d: misses %d", want, m)
		}
		p.sent(2, uint64(100+want), t0.Add(time.Duration(want)*time.Second))
	}
	// A forged nonce, and peer 3's nonce arriving from peer 2, are ignored.
	p.answered(2, 999, t0.Add(4*time.Second))
	p.answered(2, 8, t0.Add(4*time.Second))
	if _, ok := p.estimate(2); ok {
		t.Fatal("a PONG that echoed no nonce outstanding to peer 2 measured it")
	}
	if m := p.round(2); m != 4 {
		t.Fatalf("misses after ignored PONGs = %d, want 4", m)
	}
	if len(p.links[3].inflight) != 1 {
		t.Fatal("peer 3's PING was consumed by a PONG from peer 2")
	}
	// A late answer to the second PING drops the first with it and ends the
	// streak; the two PINGs after it are still in flight.
	p.answered(2, 101, t0.Add(1*time.Second+500*time.Microsecond))
	if got := len(p.links[2].inflight); got != 2 {
		t.Fatalf("%d PINGs in flight after the answer, want 2", got)
	}
	if e, ok := p.estimate(2); !ok || e != 500 {
		t.Fatalf("estimate after the late answer = %v (%v), want 500", e, ok)
	}
	if m := p.round(2); m != 1 {
		t.Fatalf("misses after the late answer = %d, want the streak restarted at 1", m)
	}
	p.answered(2, 102, t0.Add(2*time.Second+500*time.Microsecond))
	p.answered(2, 103, t0.Add(3*time.Second+500*time.Microsecond))
	if m := p.round(2); m != 0 {
		t.Fatalf("round after every PING was answered = %d, want 0", m)
	}
	// Silence again, up to a verdict: the in-flight PINGs and the streak go,
	// the estimate stays, and a PONG arriving after the verdict is dropped.
	p.sent(2, 200, t0.Add(10*time.Second))
	p.round(2)
	p.sent(2, 201, t0.Add(11*time.Second))
	if m := p.round(2); m != 2 {
		t.Fatalf("misses before the verdict = %d, want 2", m)
	}
	p.suspected(2)
	p.answered(2, 200, t0.Add(20*time.Second))
	if e, ok := p.estimate(2); !ok || e != 500 {
		t.Fatalf("estimate after the verdict = %v (%v), want 500 kept", e, ok)
	}
	if m := p.round(2); m != 0 || len(p.links[2].inflight) != 0 {
		t.Fatalf("after the verdict: misses %d, %d PINGs in flight; want 0 and 0", m, len(p.links[2].inflight))
	}
}
